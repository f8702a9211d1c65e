package core

import (
	"encoding/json"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/xtc"
)

// In-situ statistics: following the related work the paper builds on
// (TagIt's storage-side metadata generation, deltaFS's in-situ indexing),
// ADA can compute per-frame analysis series for each subset while the
// frames stream through ingest, and store them as a container dropping.
// A later query ("how compact was the protein over this run?") is then a
// metadata read instead of a full trajectory pass.

// statsPrefix names the per-tag statistics droppings.
const statsPrefix = "stats."

// SubsetStats is the stored in-situ analysis of one subset.
type SubsetStats struct {
	Tag    string    `json:"tag"`
	Frames int       `json:"frames"`
	RGyr   []float64 `json:"rgyr"` // radius of gyration per frame, nm
	RMSD   []float64 `json:"rmsd"` // translation-aligned RMSD vs frame 0, nm
	MSD    []float64 `json:"msd"`  // mean squared displacement vs frame 0, nm^2
	MeanRG float64   `json:"mean_rgyr"`
}

// IngestWithStats is IngestTrajectory with the statistics stage on: the same
// session and frame loop, plus per-frame analysis of every subset in-situ,
// charged to the storage node. The statistics are stored as stats.<tag>
// droppings beside the subsets.
func (a *ADA) IngestWithStats(logical string, pdbData []byte, tr TrajectoryReader) (*IngestReport, error) {
	return a.ingest(logical, pdbData, tr, true, false)
}

// statsStage is a session's in-situ statistics stage: one analysis series
// per subset writer, in writer order. A session without the stage has a
// nil one, and its methods do nothing.
type statsStage struct {
	series []analysis.TrajectoryStats
	// sub is the split scratch: the writers encode each subset straight
	// from the full frame, so the stage splits the frame for itself,
	// reusing sub frame to frame (Add copies what it retains).
	sub xtc.Frame
}

// newStatsStage returns a stage for n subset writers.
func newStatsStage(n int) *statsStage {
	return &statsStage{series: make([]analysis.TrajectoryStats, n)}
}

// add folds the frame the session just wrote into every series.
func (s *statsStage) add(frame *xtc.Frame, writers []*subsetWriter) error {
	if s == nil {
		return nil
	}
	for i := range s.series {
		if err := frame.SubsetInto(writers[i].runs, &s.sub); err != nil {
			return fmt.Errorf("core: in-situ stats %s: %w", writers[i].tag, err)
		}
		if err := s.series[i].Add(&s.sub); err != nil {
			return fmt.Errorf("core: in-situ stats %s: %w", writers[i].tag, err)
		}
	}
	return nil
}

// put writes each series as its subset's stats.<tag> dropping. It runs
// inside the session's seal, so the statistics ride the same atomic commit
// as the subsets: visible only once the manifest lands.
func (s *statsStage) put(st *ingestState) error {
	if s == nil {
		return nil
	}
	for i := range s.series {
		ts, sw := &s.series[i], st.writers[i]
		data, err := json.MarshalIndent(&SubsetStats{
			Tag:    sw.tag,
			Frames: ts.Frames,
			RGyr:   ts.RGyr,
			RMSD:   ts.RMSD,
			MSD:    ts.MSD,
			MeanRG: analysis.Mean(ts.RGyr),
		}, "", "  ")
		if err != nil {
			return err
		}
		if err := st.put(statsPrefix+sw.tag, sw.backend, data); err != nil {
			return err
		}
	}
	return nil
}

// Stats loads a subset's in-situ statistics (an error when the dataset was
// ingested without them).
func (a *ADA) Stats(logical, tag string) (*SubsetStats, error) {
	data, err := a.readDropping(logical, statsPrefix+tag)
	if err != nil {
		return nil, fmt.Errorf("core: no in-situ stats for %s tag %s (ingested without IngestWithStats?): %w",
			logical, tag, err)
	}
	var s SubsetStats
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("core: parse stats for %s tag %s: %w", logical, tag, err)
	}
	return &s, nil
}
