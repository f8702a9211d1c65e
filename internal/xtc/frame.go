package xtc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"unsafe"

	"repro/internal/rangelist"
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
	p := w.Extend(int(RawFrameSize(len(f.Coords))))
	f.putHeader(p, len(f.Coords))
	putRaw(p[headerLen:], f.Coords)
}

// ErrAtomRange is wrapped by the error for a subset run that reaches outside
// the frame's atoms.
var ErrAtomRange = errors.New("xtc: subset atoms out of range")

// AppendRawSubset appends to buf the uncompressed encoding of the frame of
// f's atoms that runs select, in order, and returns the extended buffer:
// SubsetInto and AppendRaw in one pass, with no sub-frame between them. Each
// run goes from f.Coords straight into buf in one kernel call, so an ingest
// splits and encodes each subset while the bytes are in cache. On error buf
// comes back unextended.
func (f *Frame) AppendRawSubset(buf []byte, runs []rangelist.Range) ([]byte, error) {
	natoms, err := f.runAtoms(runs)
	if err != nil {
		return buf, err
	}
	n := int(RawFrameSize(natoms))
	buf = slices.Grow(buf, n)
	p := buf[len(buf) : len(buf)+n]
	f.putHeader(p, natoms)
	body := p[headerLen:]
	for _, r := range runs {
		putRaw(body, f.Coords[r.Begin:r.End])
		body = body[r.Len()*12:]
	}
	return buf[:len(buf)+n], nil
}

// runAtoms counts the atoms runs select, each run checked to lie within f.
func (f *Frame) runAtoms(runs []rangelist.Range) (int, error) {
	n := 0
	for _, r := range runs {
		if r.Begin < 0 || r.End < r.Begin || r.End > len(f.Coords) {
			return 0, fmt.Errorf("%w: %d-%d (natoms=%d)", ErrAtomRange, r.Begin, r.End, len(f.Coords))
		}
		n += r.Len()
	}
	return n, nil
}

// putHeader writes the header of f's raw frame of natoms atoms into p.
func (f *Frame) putHeader(p []byte, natoms int) {
	be := binary.BigEndian
	hdr := p[:headerLen]
	be.PutUint32(hdr[0:], MagicRaw)
	be.PutUint32(hdr[4:], uint32(natoms))
	be.PutUint32(hdr[8:], uint32(f.Step))
	be.PutUint32(hdr[12:], math.Float32bits(f.Time))
	for d, b := range f.Box {
		be.PutUint32(hdr[16+4*d:], math.Float32bits(b))
	}
}

// littleEndian is the host's byte order. The word kernel is written for a
// little-endian host; a big-endian one takes the per-atom loops.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// putRaw writes atoms into body as big-endian floats, twelve bytes an atom.
func putRaw(body []byte, atoms []Vec3) {
	if !littleEndian {
		putRawAtoms(body, atoms)
		return
	}
	swapWords(body[:len(atoms)*12], atomBytes(atoms))
}

// convertRaw converts the first len(dst) atoms of a raw frame's body into dst.
func convertRaw(dst []Vec3, body []byte) {
	body = body[:len(dst)*12]
	if !littleEndian {
		convertRawAtoms(dst, body)
		return
	}
	swapWords(atomBytes(dst), body)
}

// atomBytes views a run of atoms as the bytes the host stores them in, for
// the word kernel to read or write. unsafe is confined here: Vec3 holds no
// pointers, so the view is plain memory, and no caller keeps it past the
// call that made it.
func atomBytes(atoms []Vec3) []byte {
	if len(atoms) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&atoms[0])), len(atoms)*12)
}

// swapWords is the word kernel: it writes src's four-byte floats into dst
// (as long as src, a multiple of four bytes) with each float's bytes reversed,
// eight bytes at a time, four words an iteration. A big-endian load, a
// rotate that puts the word's two floats back in order and a little-endian
// store turn two XDR floats into the host's; the same permutation turns the
// host's back into XDR, so one kernel serves decode and encode. A run of an
// odd number of floats ends with one four-byte swap.
func swapWords(dst, src []byte) {
	be, le := binary.BigEndian, binary.LittleEndian
	for len(dst) >= 32 && len(src) >= 32 {
		le.PutUint64(dst[0:], bits.RotateLeft64(be.Uint64(src[0:]), 32))
		le.PutUint64(dst[8:], bits.RotateLeft64(be.Uint64(src[8:]), 32))
		le.PutUint64(dst[16:], bits.RotateLeft64(be.Uint64(src[16:]), 32))
		le.PutUint64(dst[24:], bits.RotateLeft64(be.Uint64(src[24:]), 32))
		dst, src = dst[32:], src[32:]
	}
	for len(dst) >= 8 && len(src) >= 8 {
		le.PutUint64(dst, bits.RotateLeft64(be.Uint64(src), 32))
		dst, src = dst[8:], src[8:]
	}
	if len(dst) >= 4 && len(src) >= 4 {
		le.PutUint32(dst, be.Uint32(src))
	}
}

// putRawAtoms and convertRawAtoms are the per-atom loops: right on any
// host, and the kernel's fallback on a big-endian one.
func putRawAtoms(body []byte, atoms []Vec3) {
	for i, c := range atoms {
		b := body[i*12 : i*12+12]
		binary.BigEndian.PutUint32(b[0:], math.Float32bits(c[0]))
		binary.BigEndian.PutUint32(b[4:], math.Float32bits(c[1]))
		binary.BigEndian.PutUint32(b[8:], math.Float32bits(c[2]))
	}
}

func convertRawAtoms(dst []Vec3, body []byte) {
	for i := range dst {
		b := body[i*12 : i*12+12]
		dst[i][0] = math.Float32frombits(binary.BigEndian.Uint32(b))
		dst[i][1] = math.Float32frombits(binary.BigEndian.Uint32(b[4:]))
		dst[i][2] = math.Float32frombits(binary.BigEndian.Uint32(b[8:]))
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
		if err := decompressCoords(blob, minInt, sizeInt, smallIdx, f.Precision, f.Coords); err != nil {
			return nil, err
		}
		return f, nil

	case MagicRaw:
		body, err := rawBody(r, f)
		if err != nil {
			return nil, err
		}
		f.Coords = growCoords(f.Coords, len(body)/12)
		convertRaw(f.Coords, body)
		return f, nil

	default:
		return nil, fmt.Errorf("%w: %d", ErrBadMagic, magic)
	}
}

// rawBody reads a raw frame's header, after the magic, into f and returns
// its coordinates: natoms twelve-byte windows of big-endian floats, checked
// to be there before anything is sized from natoms.
func rawBody(r *xdr.Reader, f *Frame) ([]byte, error) {
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
	body := r.Opaque(natoms * 12)
	return body, r.Err()
}

// FrameView is one encoded frame parsed and checked as DecodeFrameBytes
// would, for a reader that converts its atoms straight to where they belong
// rather than into a Frame of their own. A raw frame's coordinates stay its
// stored bytes until CoordsInto converts them; a compressed frame's are
// decoded by ParseFrame and copied.
type FrameView struct {
	Step    int32
	Time    float32
	Box     [9]float32
	raw     []byte // a raw frame's NAtoms twelve-byte windows, within the parsed bytes
	decoded []Vec3 // a compressed frame's atoms
}

// ParseFrame parses the frame p: magic, header, and an atom count the bytes
// can back. A raw frame's view refers into p.
func ParseFrame(p []byte) (FrameView, error) {
	r := xdr.NewReader(p)
	if magic := r.Int32(); r.Err() != nil || magic != MagicRaw {
		f, err := decodeBytes(p) // a compressed frame, or the decoder's error
		if err != nil {
			return FrameView{}, err
		}
		return FrameView{Step: f.Step, Time: f.Time, Box: f.Box, decoded: f.Coords}, nil
	}
	var hdr Frame
	body, err := rawBody(r, &hdr)
	if err != nil {
		return FrameView{}, err
	}
	return FrameView{Step: hdr.Step, Time: hdr.Time, Box: hdr.Box, raw: body}, nil
}

// NAtoms returns the number of atoms in the frame.
func (v *FrameView) NAtoms() int {
	if v.decoded != nil {
		return len(v.decoded)
	}
	return len(v.raw) / 12
}

// CoordsInto puts the frame's atoms first, first+1, … into dst, one an
// element; dst must not reach past the frame's last atom.
func (v *FrameView) CoordsInto(dst []Vec3, first int) {
	if v.decoded != nil {
		copy(dst, v.decoded[first:first+len(dst)])
		return
	}
	convertRaw(dst, v.raw[first*12:])
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

// Subset returns a new frame containing only the atoms runs select, in
// order.
func (f *Frame) Subset(runs []rangelist.Range) (*Frame, error) {
	g := &Frame{}
	if err := f.SubsetInto(runs, g); err != nil {
		return nil, err
	}
	return g, nil
}

// SubsetInto fills dst with the atoms of f that runs select, reusing
// dst.Coords' capacity. It is the allocation-free form of Subset for hot
// paths that split every frame once per tagged subset; on error dst is left
// as it was.
func (f *Frame) SubsetInto(runs []rangelist.Range, dst *Frame) error {
	natoms, err := f.runAtoms(runs)
	if err != nil {
		return err
	}
	dst.Step, dst.Time, dst.Box, dst.Precision = f.Step, f.Time, f.Box, f.Precision
	dst.Coords = growCoords(dst.Coords, natoms)
	at := 0
	for _, r := range runs {
		at += copy(dst.Coords[at:], f.Coords[r.Begin:r.End])
	}
	return nil
}
