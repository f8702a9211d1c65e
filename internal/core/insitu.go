package core

import (
	"encoding/json"
	"fmt"

	"repro/internal/analysis"
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
// per subset writer, in writer order.
type statsStage []analysis.TrajectoryStats

// add folds the frame the session just wrote into every series. writeFrame
// split it into each writer's sub; the analysis pass reuses that scratch
// instead of re-splitting (Add copies what it retains).
func (s statsStage) add(writers []*subsetWriter) error {
	for i := range s {
		if err := s[i].Add(&writers[i].sub); err != nil {
			return fmt.Errorf("core: in-situ stats %s: %w", writers[i].tag, err)
		}
	}
	return nil
}

// put writes each series as its subset's stats.<tag> dropping. It runs
// inside the session's seal, so the statistics ride the same atomic commit
// as the subsets: visible only once the manifest lands.
func (s statsStage) put(st *ingestState) error {
	for i := range s {
		sw := st.writers[i]
		data, err := json.MarshalIndent(&SubsetStats{
			Tag:    sw.tag,
			Frames: s[i].Frames,
			RGyr:   s[i].RGyr,
			RMSD:   s[i].RMSD,
			MSD:    s[i].MSD,
			MeanRG: analysis.Mean(s[i].RGyr),
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
