// Package dcd implements the CHARMM/NAMD DCD binary trajectory format,
// the other trajectory type VMD commonly loads. DCD is uncompressed:
// little-endian Fortran unformatted records (each payload framed by
// leading and trailing 32-bit byte counts) holding an icntrl header, title
// records, the atom count, and per frame three float32 arrays (X, Y, Z) in
// Ångströms, optionally preceded by a unit-cell record.
//
// Frames convert to and from the repository's xtc.Frame (nanometers).
package dcd

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/xtc"
)

// magic is the 4-byte tag opening the header record.
var magic = [4]byte{'C', 'O', 'R', 'D'}

// ErrFormat is returned for malformed DCD streams.
var ErrFormat = errors.New("dcd: malformed stream")

// Header carries the fields of the icntrl block this package uses.
type Header struct {
	NFrames      int
	FirstStep    int32
	StepInterval int32
	DeltaPS      float32 // timestep, stored in AKMA units on disk
	Titles       []string
	NAtoms       int
	HasUnitCell  bool
}

// akmaPerPS converts picoseconds to CHARMM's AKMA time unit.
const akmaPerPS = 1 / 0.0488882129

// Writer emits a DCD stream. The frame count is written up front, so the
// caller declares it in the header; writing a different number of frames
// is reported at Close.
type Writer struct {
	w       *bufio.Writer
	hdr     Header
	written int
	started bool
}

// NewWriter returns a Writer that will emit the given header before the
// first frame.
func NewWriter(w io.Writer, hdr Header) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16), hdr: hdr}
}

// record writes one Fortran unformatted record.
func (w *Writer) record(payload []byte) error {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(payload)))
	if _, err := w.w.Write(n[:]); err != nil {
		return err
	}
	if _, err := w.w.Write(payload); err != nil {
		return err
	}
	_, err := w.w.Write(n[:])
	return err
}

func (w *Writer) writeHeader() error {
	// icntrl: 20 int32s after the CORD tag.
	buf := make([]byte, 4+20*4)
	copy(buf, magic[:])
	put := func(i int, v int32) {
		binary.LittleEndian.PutUint32(buf[4+i*4:], uint32(v))
	}
	put(0, int32(w.hdr.NFrames))
	put(1, w.hdr.FirstStep)
	put(2, w.hdr.StepInterval)
	delta := float32(w.hdr.DeltaPS * akmaPerPS)
	binary.LittleEndian.PutUint32(buf[4+9*4:], math.Float32bits(delta))
	if w.hdr.HasUnitCell {
		put(10, 1)
	}
	put(19, 24) // CHARMM version marker
	if err := w.record(buf); err != nil {
		return err
	}

	// Title record: count + 80-byte lines.
	titles := w.hdr.Titles
	if len(titles) == 0 {
		titles = []string{"CREATED BY repro/internal/dcd"}
	}
	tbuf := make([]byte, 4+80*len(titles))
	binary.LittleEndian.PutUint32(tbuf, uint32(len(titles)))
	for i, t := range titles {
		line := tbuf[4+80*i : 4+80*(i+1)]
		for j := range line {
			line[j] = ' '
		}
		copy(line, t)
	}
	if err := w.record(tbuf); err != nil {
		return err
	}

	// Atom count record.
	abuf := make([]byte, 4)
	binary.LittleEndian.PutUint32(abuf, uint32(w.hdr.NAtoms))
	return w.record(abuf)
}

// WriteFrame appends one frame; coordinates are converted from nm to Å.
func (w *Writer) WriteFrame(f *xtc.Frame) error {
	if !w.started {
		if w.hdr.NAtoms == 0 {
			w.hdr.NAtoms = f.NAtoms()
		}
		if err := w.writeHeader(); err != nil {
			return err
		}
		w.started = true
	}
	if f.NAtoms() != w.hdr.NAtoms {
		return fmt.Errorf("dcd: frame has %d atoms, header declares %d", f.NAtoms(), w.hdr.NAtoms)
	}
	if w.hdr.HasUnitCell {
		cell := make([]byte, 6*8)
		// CHARMM order: A, gamma, B, beta, alpha, C (Å and degrees).
		a := float64(f.Box[0]) * 10
		b := float64(f.Box[4]) * 10
		c := float64(f.Box[8]) * 10
		vals := [6]float64{a, 90, b, 90, 90, c}
		for i, v := range vals {
			binary.LittleEndian.PutUint64(cell[i*8:], math.Float64bits(v))
		}
		if err := w.record(cell); err != nil {
			return err
		}
	}
	n := f.NAtoms()
	buf := make([]byte, n*4)
	for d := 0; d < 3; d++ {
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(buf[i*4:], math.Float32bits(f.Coords[i][d]*10))
		}
		if err := w.record(buf); err != nil {
			return err
		}
	}
	w.written++
	return nil
}

// Close flushes the stream and verifies the declared frame count.
func (w *Writer) Close() error {
	if err := w.w.Flush(); err != nil {
		return err
	}
	if w.started && w.hdr.NFrames != 0 && w.written != w.hdr.NFrames {
		return fmt.Errorf("dcd: header declared %d frames but %d were written",
			w.hdr.NFrames, w.written)
	}
	return nil
}

// Reader decodes a DCD stream.
type Reader struct {
	r        *bufio.Reader
	hdr      Header
	consumed int64
	frame    int
}

// NewReader parses the header records and positions at the first frame.
func NewReader(r io.Reader) (*Reader, error) {
	d := &Reader{r: bufio.NewReaderSize(r, 1<<16)}
	head, err := d.readRecord()
	if err != nil {
		return nil, fmt.Errorf("dcd: header: %w", err)
	}
	if len(head) != 4+20*4 || head[0] != 'C' || head[1] != 'O' || head[2] != 'R' || head[3] != 'D' {
		return nil, fmt.Errorf("%w: bad header record", ErrFormat)
	}
	geti := func(i int) int32 {
		return int32(binary.LittleEndian.Uint32(head[4+i*4:]))
	}
	d.hdr.NFrames = int(geti(0))
	d.hdr.FirstStep = geti(1)
	d.hdr.StepInterval = geti(2)
	d.hdr.DeltaPS = math.Float32frombits(binary.LittleEndian.Uint32(head[4+9*4:])) / akmaPerPS
	d.hdr.HasUnitCell = geti(10) != 0

	titles, err := d.readRecord()
	if err != nil {
		return nil, fmt.Errorf("dcd: titles: %w", err)
	}
	if len(titles) >= 4 {
		n := int(binary.LittleEndian.Uint32(titles))
		for i := 0; i < n && 4+80*(i+1) <= len(titles); i++ {
			d.hdr.Titles = append(d.hdr.Titles, trimSpaces(string(titles[4+80*i:4+80*(i+1)])))
		}
	}
	atoms, err := d.readRecord()
	if err != nil {
		return nil, fmt.Errorf("dcd: atom count: %w", err)
	}
	if len(atoms) != 4 {
		return nil, fmt.Errorf("%w: atom-count record of %d bytes", ErrFormat, len(atoms))
	}
	d.hdr.NAtoms = int(int32(binary.LittleEndian.Uint32(atoms)))
	if d.hdr.NAtoms < 0 {
		return nil, fmt.Errorf("%w: negative atom count", ErrFormat)
	}
	return d, nil
}

// Header returns the parsed header.
func (d *Reader) Header() Header { return d.hdr }

// BytesConsumed returns the encoded bytes read so far.
func (d *Reader) BytesConsumed() int64 { return d.consumed }

func trimSpaces(s string) string {
	end := len(s)
	for end > 0 && (s[end-1] == ' ' || s[end-1] == 0) {
		end--
	}
	return s[:end]
}

// recordChunk is the most memory a record's 4-byte length marker can claim
// before any of the record has arrived: one allocation for every record up
// to 65k atoms.
const recordChunk = 256 << 10

func (d *Reader) readRecord() ([]byte, error) {
	var n [4]byte
	if _, err := io.ReadFull(d.r, n[:]); err != nil {
		return nil, err
	}
	size := binary.LittleEndian.Uint32(n[:])
	if size > 1<<28 {
		return nil, fmt.Errorf("%w: record of %d bytes", ErrFormat, size)
	}
	// The marker is trusted for one chunk; past that the buffer doubles
	// only as the stream delivers what the marker promised.
	payload := make([]byte, 0, min(int(size), recordChunk))
	for len(payload) < int(size) {
		got := len(payload)
		payload = append(payload, make([]byte, min(int(size)-got, max(got, recordChunk)))...)
		if _, err := io.ReadFull(d.r, payload[got:]); err != nil {
			return nil, unexpected(err)
		}
	}
	var tail [4]byte
	if _, err := io.ReadFull(d.r, tail[:]); err != nil {
		return nil, unexpected(err)
	}
	if binary.LittleEndian.Uint32(tail[:]) != size {
		return nil, fmt.Errorf("%w: record length markers disagree (%d vs %d)",
			ErrFormat, size, binary.LittleEndian.Uint32(tail[:]))
	}
	d.consumed += int64(size) + 8
	return payload, nil
}

// ReadFrame decodes the next frame (coordinates converted Å -> nm),
// returning io.EOF at end of stream.
func (d *Reader) ReadFrame() (*xtc.Frame, error) {
	f := &xtc.Frame{
		Step: d.hdr.FirstStep + int32(d.frame)*maxInt32(d.hdr.StepInterval, 1),
		Time: float32(d.frame) * d.hdr.DeltaPS * float32(maxInt32(d.hdr.StepInterval, 1)),
	}
	if d.hdr.HasUnitCell {
		cell, err := d.readRecord()
		if err == io.EOF {
			return nil, io.EOF
		}
		if err != nil {
			return nil, err
		}
		if len(cell) != 48 {
			return nil, fmt.Errorf("%w: unit-cell record of %d bytes", ErrFormat, len(cell))
		}
		f.Box[0] = float32(math.Float64frombits(binary.LittleEndian.Uint64(cell[0:])) / 10)
		f.Box[4] = float32(math.Float64frombits(binary.LittleEndian.Uint64(cell[16:])) / 10)
		f.Box[8] = float32(math.Float64frombits(binary.LittleEndian.Uint64(cell[40:])) / 10)
	}
	for dim := 0; dim < 3; dim++ {
		rec, err := d.readRecord()
		if err == io.EOF {
			if dim == 0 && !d.hdr.HasUnitCell {
				return nil, io.EOF
			}
			return nil, io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, err
		}
		if len(rec) != d.hdr.NAtoms*4 {
			return nil, fmt.Errorf("%w: coordinate record of %d bytes for %d atoms",
				ErrFormat, len(rec), d.hdr.NAtoms)
		}
		if dim == 0 {
			// Sized only now: the header's atom count has a record of that
			// many coordinates behind it.
			f.Coords = make([]xtc.Vec3, d.hdr.NAtoms)
		}
		for i := 0; i < d.hdr.NAtoms; i++ {
			f.Coords[i][dim] = math.Float32frombits(binary.LittleEndian.Uint32(rec[i*4:])) / 10
		}
	}
	d.frame++
	return f, nil
}

// ReadAll decodes every frame.
func (d *Reader) ReadAll() ([]*xtc.Frame, error) {
	var out []*xtc.Frame
	for {
		f, err := d.ReadFrame()
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

func maxInt32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}
