package core

import (
	"encoding/json"
	"fmt"
	"io"

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

// IngestWithStats runs Ingest and additionally computes per-frame analysis
// for every subset in-situ, charging the extra work to the storage node.
// The statistics are stored as stats.<tag> droppings beside the subsets.
func (a *ADA) IngestWithStats(logical string, pdbData []byte, tr TrajectoryReader) (*IngestReport, error) {
	var start float64
	if a.env != nil {
		start = a.env.Clock.Now()
	}
	st, err := a.prepareIngest(logical, pdbData, false)
	if err != nil {
		return nil, err
	}
	series := make([]*analysis.TrajectoryStats, len(st.writers))
	for i := range series {
		series[i] = &analysis.TrajectoryStats{}
	}
	for {
		frame, consumed, err := tr.ReadFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			st.abort()
			return nil, fmt.Errorf("core: ingest %s frame %d: %w", logical, st.report.Frames, err)
		}
		if tr.Compressed() {
			a.chargeCPU("decompress", a.opts.Cost.decompressTime(consumed))
		}
		a.chargeCPU("categorize", a.opts.Cost.categorizeTime(xtc.RawFrameSize(frame.NAtoms())))
		// The in-situ analysis pass reads every raw byte once more.
		a.chargeCPU("insitu", a.opts.Cost.categorizeTime(xtc.RawFrameSize(frame.NAtoms())))
		if err := st.writeFrame(frame, consumed); err != nil {
			st.abort()
			return nil, err
		}
		for i, sw := range st.writers {
			// st.writeFrame just split this frame into sw.sub; the analysis
			// pass reuses that scratch instead of re-splitting (Add copies
			// what it retains).
			if err := series[i].Add(&sw.sub); err != nil {
				st.abort()
				return nil, fmt.Errorf("core: in-situ stats %s: %w", sw.tag, err)
			}
		}
	}
	st.closeAll()

	// The stats droppings ride the same atomic commit as the subsets: they
	// are staged by finish and published only when the manifest lands.
	for i, sw := range st.writers {
		stats := &SubsetStats{
			Tag:    sw.tag,
			Frames: series[i].Frames,
			RGyr:   series[i].RGyr,
			RMSD:   series[i].RMSD,
			MSD:    series[i].MSD,
			MeanRG: analysis.Mean(series[i].RGyr),
		}
		data, err := json.MarshalIndent(stats, "", "  ")
		if err != nil {
			return nil, err
		}
		st.addExtra(statsPrefix+sw.tag, sw.backend, data)
	}
	return st.finish(start)
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
