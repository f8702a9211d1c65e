// Package trr implements the GROMACS TRR trajectory format: XDR-framed
// full-precision frames carrying positions and optionally velocities and
// forces, in nanometers. TRR is the lossless companion to XTC — simulation
// engines write TRR checkpoints while XTC holds the compressed analysis
// trajectory; ADA ingests either.
//
// The single-precision variant is implemented (GROMACS's default output).
package trr

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"repro/internal/xdr"
	"repro/internal/xtc"
)

// Magic opens every TRR frame.
const Magic = 1993

// versionTag is the format tag GROMACS writes after the magic.
const versionTag = "GMX_trn_file"

// ErrFormat is returned for malformed TRR streams.
var ErrFormat = errors.New("trr: malformed stream")

// Frame is one TRR frame: positions always, velocities and forces when the
// producer wrote them.
type Frame struct {
	Step       int32
	Time       float32
	Lambda     float32
	Box        [9]float32
	Coords     []xtc.Vec3
	Velocities []xtc.Vec3 // nil when absent
	Forces     []xtc.Vec3 // nil when absent
}

// NAtoms returns the atom count.
func (f *Frame) NAtoms() int { return len(f.Coords) }

// ToXTC converts the frame to the repository's common frame type
// (positions only).
func (f *Frame) ToXTC() *xtc.Frame {
	out := &xtc.Frame{
		Step:   f.Step,
		Time:   f.Time,
		Box:    f.Box,
		Coords: make([]xtc.Vec3, len(f.Coords)),
	}
	copy(out.Coords, f.Coords)
	return out
}

// FromXTC wraps a common frame as a TRR frame (positions only).
func FromXTC(f *xtc.Frame) *Frame {
	out := &Frame{Step: f.Step, Time: f.Time, Box: f.Box, Coords: make([]xtc.Vec3, len(f.Coords))}
	copy(out.Coords, f.Coords)
	return out
}

// Writer emits TRR frames.
type Writer struct {
	w       *bufio.Writer
	scratch *xdr.Writer
	frames  int
	bytes   int64
}

// NewWriter returns a TRR writer.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16), scratch: xdr.NewWriter(4096)}
}

// Frames returns the number of frames written.
func (w *Writer) Frames() int { return w.frames }

// BytesWritten returns the encoded bytes emitted (after Flush).
func (w *Writer) BytesWritten() int64 { return w.bytes }

// vecBytes is the encoded size of a []Vec3 block in single precision.
func vecBytes(v []xtc.Vec3) int32 {
	return int32(len(v) * 3 * 4)
}

// WriteFrame appends one frame.
func (w *Writer) WriteFrame(f *Frame) error {
	if len(f.Velocities) != 0 && len(f.Velocities) != len(f.Coords) {
		return fmt.Errorf("trr: %d velocities for %d atoms", len(f.Velocities), len(f.Coords))
	}
	if len(f.Forces) != 0 && len(f.Forces) != len(f.Coords) {
		return fmt.Errorf("trr: %d forces for %d atoms", len(f.Forces), len(f.Coords))
	}
	s := w.scratch
	s.Reset()
	s.Int32(Magic)
	s.String(versionTag)
	s.Int32(0)                  // ir_size
	s.Int32(0)                  // e_size
	s.Int32(9 * 4)              // box_size (single precision)
	s.Int32(0)                  // vir_size
	s.Int32(0)                  // pres_size
	s.Int32(0)                  // top_size
	s.Int32(0)                  // sym_size
	s.Int32(vecBytes(f.Coords)) // x_size
	s.Int32(vecBytes(f.Velocities))
	s.Int32(vecBytes(f.Forces))
	s.Int32(int32(len(f.Coords)))
	s.Int32(f.Step)
	s.Int32(0) // nre
	s.Float32(f.Time)
	s.Float32(f.Lambda)
	for _, b := range f.Box {
		s.Float32(b)
	}
	writeVecs := func(vs []xtc.Vec3) {
		for _, v := range vs {
			s.Float32(v[0])
			s.Float32(v[1])
			s.Float32(v[2])
		}
	}
	writeVecs(f.Coords)
	writeVecs(f.Velocities)
	writeVecs(f.Forces)
	n, err := w.w.Write(s.Bytes())
	w.bytes += int64(n)
	if err != nil {
		return err
	}
	w.frames++
	return nil
}

// Flush drains the buffered writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader decodes TRR frames sequentially.
type Reader struct {
	r        *bufio.Reader
	buf      []byte
	consumed int64
}

// NewReader returns a streaming TRR reader.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 1<<16)}
}

// BytesConsumed returns encoded bytes read so far.
func (r *Reader) BytesConsumed() int64 { return r.consumed }

// readChunk is the most memory a header's block size can claim before any
// of the block has arrived.
const readChunk = 256 << 10

// read returns the next n bytes of the stream in the reader's buffer. A
// header's block size is trusted for one chunk; past that the buffer grows
// only as the stream delivers what the header promised.
func (r *Reader) read(n int) ([]byte, error) {
	b := r.buf[:0]
	for got := 0; got < n; got = len(b) {
		b = append(b, make([]byte, min(n-got, max(got, readChunk)))...)
		if _, err := io.ReadFull(r.r, b[got:]); err != nil {
			r.buf = b
			return nil, err
		}
	}
	r.buf = b
	r.consumed += int64(n)
	return b, nil
}

// fixedHeaderLen covers magic + tag("GMX_trn_file" padded) + 13 int32s +
// 2 float32s: 4 + (4+12) + 13*4 + 8.
const fixedHeaderLen = 4 + 16 + 13*4 + 8

// ReadFrame decodes the next frame, returning io.EOF at stream end.
func (r *Reader) ReadFrame() (*Frame, error) {
	head, err := r.read(fixedHeaderLen)
	if err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, err
	}
	x := xdr.NewReader(head)
	if magic := x.Int32(); magic != Magic {
		return nil, fmt.Errorf("%w: magic %d", ErrFormat, magic)
	}
	if tag := x.String(); tag != versionTag {
		return nil, fmt.Errorf("%w: version tag %q", ErrFormat, tag)
	}
	// Block sizes in header order: ir, e, box, vir, pres, top, sym, x, v, f.
	var sizes [10]int32
	for i := range sizes {
		sizes[i] = x.Int32()
	}
	return r.finishFrame(x,
		sizes[0], sizes[1], sizes[2], sizes[3], sizes[4],
		sizes[5], sizes[6], sizes[7], sizes[8], sizes[9])
}

// finishFrame decodes the trailing header fields and payload blocks.
func (r *Reader) finishFrame(x *xdr.Reader, irSize, eSize, boxSize, virSize, presSize, topSize, symSize, xSize, vSize, fSize int32) (*Frame, error) {
	natoms := x.Int32()
	step := x.Int32()
	_ = x.Int32() // nre
	t := x.Float32()
	lambda := x.Float32()
	if err := x.Err(); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrFormat, err)
	}
	if natoms < 0 || natoms > 1<<28 {
		return nil, fmt.Errorf("%w: atom count %d", ErrFormat, natoms)
	}
	for _, sz := range []int32{irSize, eSize, virSize, presSize, topSize, symSize} {
		if sz != 0 {
			return nil, fmt.Errorf("%w: unsupported auxiliary block of %d bytes", ErrFormat, sz)
		}
	}
	checkVec := func(name string, sz int32) (bool, error) {
		switch int64(sz) {
		case 0:
			return false, nil
		case int64(natoms) * 12:
			return true, nil
		default:
			return false, fmt.Errorf("%w: %s block of %d bytes for %d atoms (double precision unsupported)",
				ErrFormat, name, sz, natoms)
		}
	}
	hasX, err := checkVec("x", xSize)
	if err != nil {
		return nil, err
	}
	if !hasX {
		return nil, fmt.Errorf("%w: frame without positions", ErrFormat)
	}
	hasV, err := checkVec("v", vSize)
	if err != nil {
		return nil, err
	}
	hasF, err := checkVec("f", fSize)
	if err != nil {
		return nil, err
	}

	f := &Frame{Step: step, Time: t, Lambda: lambda}
	if boxSize != 0 {
		if boxSize != 36 {
			return nil, fmt.Errorf("%w: box block of %d bytes", ErrFormat, boxSize)
		}
		b, err := r.read(36)
		if err != nil {
			return nil, unexpected(err)
		}
		bx := xdr.NewReader(b)
		for i := range f.Box {
			f.Box[i] = bx.Float32()
		}
	}
	readVecs := func(n int32) ([]xtc.Vec3, error) {
		raw, err := r.read(int(n) * 12)
		if err != nil {
			return nil, unexpected(err)
		}
		vx := xdr.NewReader(raw)
		out := make([]xtc.Vec3, n)
		for i := range out {
			out[i][0] = vx.Float32()
			out[i][1] = vx.Float32()
			out[i][2] = vx.Float32()
		}
		return out, vx.Err()
	}
	if f.Coords, err = readVecs(natoms); err != nil {
		return nil, err
	}
	if hasV {
		if f.Velocities, err = readVecs(natoms); err != nil {
			return nil, err
		}
	}
	if hasF {
		if f.Forces, err = readVecs(natoms); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// ReadAll decodes every frame.
func (r *Reader) ReadAll() ([]*Frame, error) {
	var out []*Frame
	for {
		f, err := r.ReadFrame()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, f)
	}
}

func unexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
