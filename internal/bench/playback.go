package bench

import (
	"bytes"
	"fmt"

	"repro/internal/core"
	"repro/internal/gpcr"
	"repro/internal/platform"
	"repro/internal/vfs"
	"repro/internal/vmd"
	"repro/internal/xtc"
)

// runPlayback quantifies the Section 2.1 motivation with the live pipeline:
// under the same compute-node memory budget, back-and-forth replay of
// traditional full frames (decompressing on every miss) thrashes, while
// ADA's protein-only frames fit and replay from memory.
func runPlayback(cfg *Config) (*Table, error) {
	p, err := platform.NewSSDServer()
	if err != nil {
		return nil, err
	}
	ds, err := p.Stage("gpcr", gpcr.Scaled(cfg.Scale), cfg.MeasuredFrames)
	if err != nil {
		return nil, err
	}

	// Traditional source: the compressed file, random-accessed with
	// per-miss decompression (what VMD does when frames were evicted).
	traj, err := vfs.ReadFile(p.Traditional, ds.CompressedPath)
	if err != nil {
		return nil, err
	}
	idx, err := xtc.BuildIndex(byteReaderAt(traj), int64(len(traj)))
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:    "ext-playback",
		Title: "Extension: replay hit rate and stalls under a fixed memory budget",
		Columns: []string{"Budget (frames)", "C-ext4 hit%", "C-ext4 stall(s)",
			"ADA(p) hit%", "ADA(p) stall(s)"},
	}
	fullFrameBytes := xtc.RawFrameSize(ds.NAtoms)
	pattern := vmd.BackAndForth(ds.Frames, 6)
	for _, budgetFrames := range []int{ds.Frames / 4, ds.Frames / 2, ds.Frames} {
		budget := int64(budgetFrames) * fullFrameBytes

		s := vmd.NewSession(p.Env, 0, p.ComputeCost)
		ra := xtc.NewRandomAccessReader(byteReaderAt(traj), idx)
		fullCache := s.NewFrameCache(s.ChargeDecompression(ra, idx), budget)
		fullStats, err := s.Play(fullCache, pattern)
		if err != nil {
			return nil, err
		}
		fullCache.Release()

		sub, err := p.ADA.OpenSubsetAt(ds.Logical, core.TagProtein)
		if err != nil {
			return nil, err
		}
		subCache := s.NewFrameCache(sub, budget)
		subStats, err := s.Play(subCache, pattern)
		sub.Close()
		if err != nil {
			return nil, err
		}
		subCache.Release()

		t.AddRow(
			fmt.Sprintf("%d", budgetFrames),
			fmt.Sprintf("%.0f", 100*fullStats.Cache.HitRate()),
			fmtSec(fullStats.StallSec),
			fmt.Sprintf("%.0f", 100*subStats.Cache.HitRate()),
			fmtSec(subStats.StallSec),
		)
	}
	t.Notes = append(t.Notes,
		"paper §2.1: frequent swapping under random/back-and-forth access causes a low hit rate and non-fluent playback",
		fmt.Sprintf("pattern: %d-frame trajectory swept back and forth 6 times (live pipeline, scale 1/%d)",
			ds.Frames, cfg.Scale))
	return t, nil
}

// byteReaderAt adapts a byte slice to io.ReaderAt.
func byteReaderAt(b []byte) *bytes.Reader { return bytes.NewReader(b) }
