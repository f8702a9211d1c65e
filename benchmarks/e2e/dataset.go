package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/gpcr"
	"repro/internal/mdsim"
	"repro/internal/pdb"
	"repro/internal/xtc"
)

// dataset is one generated trajectory and what the checks compare against.
// Everything is a function of (scale, frames, seed).
type dataset struct {
	pdb     []byte
	xtc     []byte
	frames  int
	natoms  int
	pAtoms  int
	batches [][]byte // the xtc bytes cut into whole-frame batches for live_tail

	// Coordinate hashes of a reference decode: the whole frame, and the
	// frame restricted to the protein atoms (tag p). The protein atoms are
	// taken from the generated structure's categories, not from ADA's
	// label file, so a labelling bug shows as a mismatch.
	refAll []uint64
	refP   []uint64

	decodeAlone time.Duration // the reference decode, xtc.NewReader only
}

// offsetWriter notes where each Write starts; xtc.Writer issues one Write
// per frame, so these are the frame offsets.
type offsetWriter struct {
	buf  bytes.Buffer
	offs []int
}

func (w *offsetWriter) Write(p []byte) (int, error) {
	w.offs = append(w.offs, w.buf.Len())
	return w.buf.Write(p)
}

func generate(scale, frames, batchFrames int, seed int64) (*dataset, error) {
	cfg := gpcr.Scaled(scale)
	cfg.Seed = seed
	sys, err := cfg.Build()
	if err != nil {
		return nil, err
	}
	var pb bytes.Buffer
	if err := pdb.Write(&pb, sys.Structure); err != nil {
		return nil, err
	}
	cats := make([]pdb.Category, sys.Structure.NAtoms())
	var protein []int
	for i, a := range sys.Structure.Atoms {
		cats[i] = a.Category
		if a.Category == pdb.Protein {
			protein = append(protein, i)
		}
	}
	params := mdsim.DefaultParams()
	params.Seed = seed
	md, err := mdsim.New(sys.Coords, cats, sys.Box, params)
	if err != nil {
		return nil, err
	}
	var ow offsetWriter
	if err := md.WriteTrajectory(xtc.NewWriter(&ow), frames); err != nil {
		return nil, err
	}
	if len(ow.offs) != frames {
		return nil, fmt.Errorf("dataset: %d writes for %d frames", len(ow.offs), frames)
	}
	d := &dataset{
		pdb: pb.Bytes(), xtc: ow.buf.Bytes(),
		frames: frames, natoms: len(cats), pAtoms: len(protein),
	}
	for i := 0; i < frames; i += batchFrames {
		end := len(d.xtc)
		if i+batchFrames < frames {
			end = ow.offs[i+batchFrames]
		}
		d.batches = append(d.batches, d.xtc[ow.offs[i]:end])
	}

	// Reference decode. Timed on its own first, so xtc's share of an
	// ingest can be computed; hashed in a second pass.
	t0 := time.Now()
	decoded := make([]*xtc.Frame, 0, frames)
	rd := xtc.NewReader(bytes.NewReader(d.xtc))
	for {
		fr, err := rd.ReadFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reference decode: %w", err)
		}
		decoded = append(decoded, fr)
	}
	d.decodeAlone = time.Since(t0)
	if len(decoded) != frames {
		return nil, fmt.Errorf("dataset: decoded %d of %d frames", len(decoded), frames)
	}
	sub := make([]xtc.Vec3, len(protein))
	for _, fr := range decoded {
		d.refAll = append(d.refAll, hashCoords(fr.Coords))
		for j, a := range protein {
			sub[j] = fr.Coords[a]
		}
		d.refP = append(d.refP, hashCoords(sub))
	}
	return d, nil
}

// hashCoords hashes the exact float32 bits of every coordinate. Three
// independent multiply chains keep it near 1 ns per atom, so checking a
// frame costs a few percent of reading one.
func hashCoords(c []xtc.Vec3) uint64 {
	const p = 0x9E3779B97F4A7C15
	h0, h1, h2 := uint64(len(c)), uint64(1), uint64(2)
	for _, v := range c {
		h0 = (h0 ^ uint64(math.Float32bits(v[0]))) * p
		h1 = (h1 ^ uint64(math.Float32bits(v[1]))) * p
		h2 = (h2 ^ uint64(math.Float32bits(v[2]))) * p
	}
	h := h0 ^ (h1>>21 | h1<<43) ^ (h2>>42 | h2<<22)
	h ^= h >> 29
	return h * p
}
