package xtc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/xdr"
)

// Magic numbers distinguishing compressed and raw frames.
const (
	MagicCompressed = 1995 // homage to the XTC magic
	MagicRaw        = 1994 // uncompressed ("D-" scenarios in the paper)
)

// smallAtomThreshold mirrors the XTC behavior of storing tiny systems as
// raw floats even inside a compressed frame.
const smallAtomThreshold = 9

// ErrBadMagic is returned when a frame does not start with a known magic.
var ErrBadMagic = errors.New("xtc: bad frame magic")

// Frame is one snapshot of a trajectory.
type Frame struct {
	Step      int32
	Time      float32 // picoseconds
	Box       [9]float32
	Coords    []Vec3
	Precision float32 // quantization used at encode time (compressed frames)
}

// NAtoms returns the number of atoms in the frame.
func (f *Frame) NAtoms() int { return len(f.Coords) }

// Clone returns a deep copy of the frame.
func (f *Frame) Clone() *Frame {
	g := *f
	g.Coords = make([]Vec3, len(f.Coords))
	copy(g.Coords, f.Coords)
	return &g
}

// AppendEncoded appends the compressed encoding of f to w.
func (f *Frame) AppendEncoded(w *xdr.Writer) error {
	natoms := len(f.Coords)
	w.Int32(MagicCompressed)
	w.Int32(int32(natoms))
	w.Int32(f.Step)
	w.Float32(f.Time)
	for _, b := range f.Box {
		w.Float32(b)
	}
	if natoms <= smallAtomThreshold {
		for _, c := range f.Coords {
			for d := 0; d < 3; d++ {
				w.Float32(c[d])
			}
		}
		return nil
	}
	prec := f.Precision
	if prec <= 0 {
		prec = DefaultPrecision
	}
	ints := getInts(natoms * 3)
	defer putInts(ints)
	if err := quantize(f.Coords, prec, ints); err != nil {
		return err
	}
	minInt, sizeInt := frameBounds(ints)
	bw := getBitWriter()
	smallIdx := compressCoords(bw, ints, minInt, sizeInt)

	w.Float32(prec)
	for d := 0; d < 3; d++ {
		w.Int32(minInt[d])
	}
	for d := 0; d < 3; d++ {
		w.Uint32(sizeInt[d])
	}
	w.Int32(int32(smallIdx))
	w.VarOpaque(bw.Bytes())
	putBitWriter(bw)
	return nil
}

// AppendRaw appends the uncompressed encoding of f to w. This is the format
// of the paper's "D-" (decompressed) datasets and of ADA's pre-processed
// subsets.
func (f *Frame) AppendRaw(w *xdr.Writer) {
	w.Int32(MagicRaw)
	w.Int32(int32(len(f.Coords)))
	w.Int32(f.Step)
	w.Float32(f.Time)
	for _, b := range f.Box {
		w.Float32(b)
	}
	for _, c := range f.Coords {
		for d := 0; d < 3; d++ {
			w.Float32(c[d])
		}
	}
}

// DefaultPrecision is the customary XTC quantization (1/1000 nm).
const DefaultPrecision = 1000

// decodeHeader reads the shared frame prefix after the magic.
func decodeHeader(r *xdr.Reader, f *Frame) int {
	natoms := int(r.Int32())
	f.Step = r.Int32()
	f.Time = r.Float32()
	for d := 0; d < 9; d++ {
		f.Box[d] = r.Float32()
	}
	return natoms
}

// DecodeFrame decodes one frame (compressed or raw) from r.
func DecodeFrame(r *xdr.Reader) (*Frame, error) {
	return decodeFrameInto(r, &Frame{})
}

// decodeFrameInto is DecodeFrame into f, overwriting every field and reusing
// the capacity of f.Coords; f comes back whole or, with an error, unusable.
func decodeFrameInto(r *xdr.Reader, f *Frame) (*Frame, error) {
	magic := r.Int32()
	if err := r.Err(); err != nil {
		return nil, err
	}
	*f = Frame{Coords: f.Coords[:0]}
	switch magic {
	case MagicCompressed:
		natoms := decodeHeader(r, f)
		if err := r.Err(); err != nil {
			return nil, err
		}
		if natoms < 0 {
			return nil, fmt.Errorf("xtc: negative atom count %d", natoms)
		}
		// Stored plain an atom is twelve bytes; compressed, no coding spends
		// less than a bit on one (five bits open every run, and a run's
		// atoms cost more than one each).
		need := natoms * 12
		if natoms > smallAtomThreshold {
			need = (natoms + 7) / 8
		}
		if err := atomsFit(r, natoms, need); err != nil {
			return nil, err
		}
		f.Coords = growCoords(f.Coords, natoms)
		if natoms <= smallAtomThreshold {
			for i := 0; i < natoms; i++ {
				for d := 0; d < 3; d++ {
					f.Coords[i][d] = r.Float32()
				}
			}
			f.Precision = DefaultPrecision
			return f, r.Err()
		}
		f.Precision = r.Float32()
		var minInt [3]int32
		var sizeInt [3]uint32
		for d := 0; d < 3; d++ {
			minInt[d] = r.Int32()
		}
		for d := 0; d < 3; d++ {
			sizeInt[d] = r.Uint32()
		}
		smallIdx := int(r.Int32())
		blob := r.VarOpaque()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if f.Precision <= 0 {
			return nil, fmt.Errorf("xtc: invalid precision %g", f.Precision)
		}
		ints := getInts(natoms * 3)
		defer putInts(ints)
		if err := decompressCoords(blob, natoms, minInt, sizeInt, smallIdx, ints); err != nil {
			return nil, err
		}
		dequantize(ints, f.Precision, f.Coords)
		return f, nil

	case MagicRaw:
		natoms := decodeHeader(r, f)
		if err := r.Err(); err != nil {
			return nil, err
		}
		if natoms < 0 {
			return nil, fmt.Errorf("xtc: negative atom count %d", natoms)
		}
		if err := atomsFit(r, natoms, natoms*12); err != nil {
			return nil, err
		}
		// The coordinates are one run of big-endian floats, taken whole and
		// converted in twelve-byte windows: a bounds check an atom, where
		// r.Float32 tests the reader's sticky error three times.
		body := r.Opaque(natoms * 12)
		if err := r.Err(); err != nil {
			return nil, err
		}
		f.Coords = growCoords(f.Coords, natoms)
		for i := range f.Coords {
			b := body[i*12 : i*12+12]
			f.Coords[i][0] = math.Float32frombits(binary.BigEndian.Uint32(b))
			f.Coords[i][1] = math.Float32frombits(binary.BigEndian.Uint32(b[4:]))
			f.Coords[i][2] = math.Float32frombits(binary.BigEndian.Uint32(b[8:]))
		}
		return f, nil

	default:
		return nil, fmt.Errorf("%w: %d", ErrBadMagic, magic)
	}
}

// atomsFit bounds a header's atom count by the bytes left to back it, before
// anything is sized from it: a frame that claims more atoms than its bytes
// could hold is a short buffer, not a request for memory.
func atomsFit(r *xdr.Reader, natoms, need int) error {
	if need > r.Remaining() {
		return fmt.Errorf("xtc: %d atoms need %d bytes, %d remain: %w",
			natoms, need, r.Remaining(), xdr.ErrShortBuffer)
	}
	return nil
}

// growCoords returns c resized to n atoms, reallocated only when it is too
// small. The decoders assign every element, so stale contents never show.
func growCoords(c []Vec3, n int) []Vec3 {
	if cap(c) >= n {
		return c[:n]
	}
	return make([]Vec3, n)
}

// Subset returns a new frame containing only the atoms whose indices are
// listed in idx (which must be sorted ascending for meaningful trajectories,
// though any order is accepted).
func (f *Frame) Subset(idx []int) (*Frame, error) {
	g := &Frame{}
	if err := f.SubsetInto(idx, g); err != nil {
		return nil, err
	}
	return g, nil
}

// SubsetInto fills dst with the atoms of f selected by idx, reusing
// dst.Coords' capacity. It is the allocation-free form of Subset for hot
// paths that split every frame once per tagged subset; on error dst's
// contents are unspecified.
func (f *Frame) SubsetInto(idx []int, dst *Frame) error {
	dst.Step, dst.Time, dst.Box, dst.Precision = f.Step, f.Time, f.Box, f.Precision
	if cap(dst.Coords) < len(idx) {
		dst.Coords = make([]Vec3, len(idx))
	}
	dst.Coords = dst.Coords[:len(idx)]
	for i, a := range idx {
		if a < 0 || a >= len(f.Coords) {
			return fmt.Errorf("xtc: subset index %d out of range (natoms=%d)", a, len(f.Coords))
		}
		dst.Coords[i] = f.Coords[a]
	}
	return nil
}
