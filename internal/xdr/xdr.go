// Package xdr implements the subset of XDR (RFC 4506) external data
// representation used by GROMACS-style trajectory files, plus the bit-level
// reader and writer that the XTC coordinate compressor is built on.
//
// All multi-byte quantities are big-endian, and opaque data is padded to a
// four-byte boundary, exactly as xdrfile does. The Writer never fails until
// its underlying buffer does; errors are sticky on both Reader and Writer so
// callers may perform a sequence of operations and check the error once.
package xdr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
)

// ErrShortBuffer is returned when a Reader runs out of input mid-value.
var ErrShortBuffer = errors.New("xdr: short buffer")

// Writer serializes XDR values into an in-memory buffer.
// The zero value is ready to use.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer whose buffer has the given initial capacity.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity)}
}

// Bytes returns the encoded buffer. The slice is owned by the Writer and is
// invalidated by further writes.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of encoded bytes so far.
func (w *Writer) Len() int { return len(w.buf) }

// Reset truncates the Writer to empty, retaining the underlying storage.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Uint32 appends v as a big-endian 32-bit unsigned integer.
func (w *Writer) Uint32(v uint32) {
	w.buf = binary.BigEndian.AppendUint32(w.buf, v)
}

// Int32 appends v as a big-endian 32-bit two's-complement integer.
func (w *Writer) Int32(v int32) { w.Uint32(uint32(v)) }

// Uint64 appends v as a big-endian 64-bit unsigned integer ("hyper").
func (w *Writer) Uint64(v uint64) {
	w.buf = binary.BigEndian.AppendUint64(w.buf, v)
}

// Int64 appends v as a big-endian 64-bit two's-complement integer.
func (w *Writer) Int64(v int64) { w.Uint64(uint64(v)) }

// Float32 appends v in IEEE-754 single precision.
func (w *Writer) Float32(v float32) { w.Uint32(math.Float32bits(v)) }

// Float64 appends v in IEEE-754 double precision.
func (w *Writer) Float64(v float64) { w.Uint64(math.Float64bits(v)) }

// Extend appends n bytes and returns them for the caller to fill in place:
// the bulk form of a run of Uint32 calls, for an encoder that already
// knows its exact size.
func (w *Writer) Extend(n int) []byte {
	w.buf = slices.Grow(w.buf, n)
	w.buf = w.buf[:len(w.buf)+n]
	return w.buf[len(w.buf)-n:]
}

// Opaque appends fixed-length opaque data padded with zero bytes to a
// four-byte boundary. The length itself is not written; use VarOpaque for
// length-prefixed data.
func (w *Writer) Opaque(p []byte) {
	w.buf = append(w.buf, p...)
	for pad := (4 - len(p)%4) % 4; pad > 0; pad-- {
		w.buf = append(w.buf, 0)
	}
}

// VarOpaque appends a length prefix followed by the padded opaque data.
func (w *Writer) VarOpaque(p []byte) {
	w.Uint32(uint32(len(p)))
	w.Opaque(p)
}

// String appends s as XDR variable-length data.
func (w *Writer) String(s string) { w.VarOpaque([]byte(s)) }

// Reader decodes XDR values from a byte slice.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over p. The Reader does not copy p.
func NewReader(p []byte) *Reader { return &Reader{buf: p} }

// Reset rewinds the Reader onto p, clearing any sticky error. It lets one
// Reader decode many buffers without reallocating, and a zero Reader on the
// stack decode one (the codec hot path does).
func (r *Reader) Reset(p []byte) {
	r.buf = p
	r.off = 0
	r.err = nil
}

// Err returns the first error encountered, if any.
func (r *Reader) Err() error { return r.err }

// Offset returns the current decode position in bytes.
func (r *Reader) Offset() int { return r.off }

// Remaining returns the number of bytes not yet consumed.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if r.off+n > len(r.buf) {
		r.err = fmt.Errorf("%w: need %d bytes at offset %d of %d",
			ErrShortBuffer, n, r.off, len(r.buf))
		return false
	}
	return true
}

// Uint32 decodes a big-endian 32-bit unsigned integer.
func (r *Reader) Uint32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

// Int32 decodes a big-endian 32-bit signed integer.
func (r *Reader) Int32() int32 { return int32(r.Uint32()) }

// Uint64 decodes a big-endian 64-bit unsigned integer.
func (r *Reader) Uint64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// Int64 decodes a big-endian 64-bit signed integer.
func (r *Reader) Int64() int64 { return int64(r.Uint64()) }

// Float32 decodes an IEEE-754 single-precision value.
func (r *Reader) Float32() float32 { return math.Float32frombits(r.Uint32()) }

// Float64 decodes an IEEE-754 double-precision value.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.Uint64()) }

// Opaque decodes n bytes of fixed-length opaque data, consuming the
// trailing pad. The returned slice aliases the Reader's buffer.
func (r *Reader) Opaque(n int) []byte {
	padded := n + (4-n%4)%4
	if !r.need(padded) {
		return nil
	}
	p := r.buf[r.off : r.off+n]
	r.off += padded
	return p
}

// VarOpaque decodes length-prefixed opaque data.
func (r *Reader) VarOpaque() []byte {
	n := r.Uint32()
	if r.err != nil {
		return nil
	}
	if int(n) > r.Remaining() {
		r.err = fmt.Errorf("%w: var opaque length %d exceeds remaining %d",
			ErrShortBuffer, n, r.Remaining())
		return nil
	}
	return r.Opaque(int(n))
}

// String decodes an XDR string.
func (r *Reader) String() string { return string(r.VarOpaque()) }

// ReadFull reads an exact count of raw (unpadded) bytes into dst from rd.
// It is a convenience for stream framing around XDR blocks.
func ReadFull(rd io.Reader, dst []byte) error {
	_, err := io.ReadFull(rd, dst)
	return err
}
