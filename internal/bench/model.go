// Package bench reproduces every table and figure of the paper's
// evaluation. Small configurations run through the live pipeline (real
// codec, real middleware, virtual clock); the paper-scale series — up to
// ~2.6 TB of raw trajectory — are extrapolated with an analytic engine
// whose inputs are byte volumes measured from the real codec on a real
// sample and the same platform cost models the live pipeline charges.
// TestAnalyticMatchesMeasured pins the two paths together.
package bench

import (
	"bytes"
	"fmt"

	"repro/internal/core"
	"repro/internal/gpcr"
	"repro/internal/mdsim"
	"repro/internal/pdb"
	"repro/internal/xtc"
)

// DataModel carries the per-frame byte volumes of a workload, measured by
// running the real compressor over a real sample trajectory.
type DataModel struct {
	NAtoms       int
	ProteinAtoms int
	MiscAtoms    int
	PDBBytes     int64

	// Per-frame sizes in bytes, averaged over the sample.
	CompressedPerFrame        float64 // full system, compressed
	CompressedProteinPerFrame float64 // protein subset, compressed (Table 1)
	RawPerFrame               float64 // full system, raw encoding
	ProteinRawPerFrame        float64 // protein subset, raw encoding
	SubsetsRawPerFrame        float64 // sum of per-tag raw encodings (coarse)
}

// Measure builds the system, simulates sampleFrames frames, and measures
// every representation's size with the real codec.
func Measure(cfg gpcr.Config, sampleFrames int) (*DataModel, error) {
	if sampleFrames <= 0 {
		return nil, fmt.Errorf("bench: need at least one sample frame")
	}
	sys, err := cfg.Build()
	if err != nil {
		return nil, fmt.Errorf("bench: measure: %w", err)
	}
	var pdbBuf bytes.Buffer
	if err := pdb.Write(&pdbBuf, sys.Structure); err != nil {
		return nil, err
	}
	cats := make([]pdb.Category, sys.Structure.NAtoms())
	for i := range cats {
		cats[i] = sys.Structure.Atoms[i].Category
	}
	simr, err := mdsim.New(sys.Coords, cats, sys.Box, mdsim.DefaultParams())
	if err != nil {
		return nil, err
	}
	labels := core.BuildLabels(sys.Structure)
	protRuns := labels.CategoryRanges(pdb.Protein)

	var full, prot bytes.Buffer
	fw := xtc.NewWriter(&full)
	pw := xtc.NewWriter(&prot)
	for i := 0; i < sampleFrames; i++ {
		f := simr.Step()
		if err := fw.WriteFrame(f); err != nil {
			return nil, err
		}
		sub, err := f.Subset(protRuns.Ranges())
		if err != nil {
			return nil, err
		}
		if err := pw.WriteFrame(sub); err != nil {
			return nil, err
		}
	}

	nAtoms := sys.Structure.NAtoms()
	nProt := protRuns.Count()
	dm := &DataModel{
		NAtoms:       nAtoms,
		ProteinAtoms: nProt,
		MiscAtoms:    nAtoms - nProt,
		PDBBytes:     int64(pdbBuf.Len()),

		CompressedPerFrame:        float64(full.Len()) / float64(sampleFrames),
		CompressedProteinPerFrame: float64(prot.Len()) / float64(sampleFrames),
		RawPerFrame:               float64(xtc.RawFrameSize(nAtoms)),
		ProteinRawPerFrame:        float64(xtc.RawFrameSize(nProt)),
		SubsetsRawPerFrame: float64(xtc.RawFrameSize(nProt)) +
			float64(xtc.RawFrameSize(nAtoms-nProt)),
	}
	return dm, nil
}

// CompressionRatio returns raw/compressed for the full system.
func (dm *DataModel) CompressionRatio() float64 {
	return dm.RawPerFrame / dm.CompressedPerFrame
}

// ProteinFraction returns the protein share of the raw bytes.
func (dm *DataModel) ProteinFraction() float64 {
	return dm.ProteinRawPerFrame / dm.RawPerFrame
}

// ProteinCompressedFraction returns the protein share of the compressed
// bytes (Table 1's "protein data fraction").
func (dm *DataModel) ProteinCompressedFraction() float64 {
	return dm.CompressedProteinPerFrame / dm.CompressedPerFrame
}

// Sizes returns total byte volumes at a frame count: compressed, raw, and
// decompressed-protein (the three columns of Tables 2 and 6).
func (dm *DataModel) Sizes(frames int) (compressed, raw, protein int64) {
	return int64(dm.CompressedPerFrame * float64(frames)),
		int64(dm.RawPerFrame * float64(frames)),
		int64(dm.ProteinRawPerFrame * float64(frames))
}
