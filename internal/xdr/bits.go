package xdr

import (
	"encoding/binary"
	"fmt"
)

// BitWriter packs values of arbitrary bit width into a byte stream,
// most-significant bit first, matching the packing order used by the
// GROMACS trajectory compressor. It is the mirror of BitReader: bits
// accumulate right-aligned in a 64-bit register and drain to the buffer in
// bulk 8-byte stores, so the common small-width writes on the XTC encode
// hot path are a shift and an or instead of a per-byte loop.
type BitWriter struct {
	buf    []byte
	acc    uint64 // low n bits are valid, MSB-first stream order
	n      uint   // valid bits in acc (0..63 between calls)
	closed bool
}

// NewBitWriter returns a BitWriter with the given initial byte capacity.
func NewBitWriter(capacity int) *BitWriter {
	return &BitWriter{buf: make([]byte, 0, capacity)}
}

// Reset truncates the writer to empty, retaining the underlying storage so
// pooled writers do not reallocate per frame.
func (w *BitWriter) Reset() {
	w.buf = w.buf[:0]
	w.acc, w.n = 0, 0
	w.closed = false
}

// WriteBits appends the low nbits bits of v, MSB first.
// nbits must be in [0, 32].
func (w *BitWriter) WriteBits(v uint32, nbits uint) {
	if nbits > 32 {
		panic(fmt.Sprintf("xdr: WriteBits width %d out of range", nbits))
	}
	w.WriteBits64(uint64(v)&mask64(nbits), nbits)
}

// WriteBits64 appends the low nbits bits of v, MSB first. nbits must be in
// [0, 64]. It is the inverse of BitReader.ReadBits64 and the entry point the
// XTC coordinate compressor packs whole triplets through.
func (w *BitWriter) WriteBits64(v uint64, nbits uint) {
	if nbits > 64 {
		panic(fmt.Sprintf("xdr: WriteBits64 width %d out of range", nbits))
	}
	v &= mask64(nbits)
	if w.n+nbits < 64 {
		w.acc = w.acc<<nbits | v
		w.n += nbits
		return
	}
	// Top the accumulator up to exactly 64 bits and drain it as one
	// big-endian 8-byte store; the remainder restarts the accumulator.
	take := 64 - w.n
	rest := nbits - take
	w.buf = binary.BigEndian.AppendUint64(w.buf, w.acc<<take|v>>rest)
	w.acc = v & mask64(rest)
	w.n = rest
}

// WriteBitsBig appends a value wider than 64 bits expressed as a slice of
// bytes in big-endian order, using exactly nbits bits.
func (w *BitWriter) WriteBitsBig(bytes []byte, nbits uint) {
	rem := nbits % 8
	idx := 0
	if rem != 0 {
		w.WriteBits(uint32(bytes[0]), rem)
		idx = 1
	}
	for ; idx < len(bytes); idx++ {
		w.WriteBits(uint32(bytes[idx]), 8)
	}
}

// Bytes flushes any partial byte (zero-padded on the right) and returns the
// packed buffer. After Bytes the writer must not be written to again until
// Reset.
func (w *BitWriter) Bytes() []byte {
	if !w.closed {
		for w.n >= 8 {
			w.n -= 8
			w.buf = append(w.buf, byte(w.acc>>w.n))
		}
		if w.n > 0 {
			w.buf = append(w.buf, byte(w.acc<<(8-w.n)))
			w.n = 0
		}
		w.acc = 0
		w.closed = true
	}
	return w.buf
}

// BitLen returns the number of bits written so far.
func (w *BitWriter) BitLen() int { return len(w.buf)*8 + int(w.n) }

// bitsAt returns the nbits bits of p (MSB first, nbits at most 64) that
// start at bit offset pos, right-aligned. Bits past the end of p read as
// zero, so a caller tells a read that ran past the end by its offset:
// pos+nbits > 8*len(p). No offset, however far past the end, panics.
func bitsAt(p []byte, pos, nbits uint) uint64 {
	if i := pos >> 3; nbits <= MaxLoadBits && i+8 <= uint(len(p)) {
		return LoadBits(p, pos, nbits)
	}
	// A wider field can reach a ninth byte, and one near the end of p has
	// fewer than eight: read the bytes it can touch from a zero-padded copy.
	if nbits > 64 {
		panic(fmt.Sprintf("xdr: bit read width %d out of range", nbits))
	}
	var w [9]byte
	if i := pos >> 3; i < uint(len(p)) {
		copy(w[:], p[i:])
	}
	s := pos & 7
	return (binary.BigEndian.Uint64(w[:])<<s | uint64(w[8])>>(8-s)) >> (64 - nbits)
}

// MaxLoadBits is the widest field LoadBits reads: one that starts on the
// last bit of a byte still ends within the 8 bytes from that byte.
const MaxLoadBits = 57

// LoadBits is bitsAt for a field of at most MaxLoadBits bits with 8 bytes of
// p at its first byte: one big-endian 8-byte load, one shift and a mask,
// small enough to inline into a decode loop that keeps pos in a register.
// Fewer than 8 bytes there panic (index out of range).
func LoadBits(p []byte, pos, nbits uint) uint64 {
	return binary.BigEndian.Uint64(p[pos>>3:]) >> ((64 - nbits - pos&7) & 63) & lowMask[nbits&63]
}

// lowMask[n] is mask64(n) as a table, so LoadBits masks with a load rather
// than a second variable shift; the & 63 on the shift and the index spare
// it the range checks a wider count would need.
var lowMask = func() (t [64]uint64) {
	for n := range t {
		t[n] = mask64(uint(n))
	}
	return t
}()

// BitReader unpacks values written by BitWriter. It reads positionally with
// bitsAt: it keeps only the bit offset of the next field.
type BitReader struct {
	buf []byte
	pos uint // bit offset of the next read
	err error
}

// NewBitReader returns a BitReader over p.
func NewBitReader(p []byte) *BitReader { return &BitReader{buf: p} }

// Err returns the first error encountered.
func (r *BitReader) Err() error { return r.err }

// mask64 returns a mask of the low nbits bits; nbits may be 64.
func mask64(nbits uint) uint64 {
	// Go defines shifts >= width as 0, so nbits == 64 yields ^uint64(0).
	return 1<<nbits - 1
}

// ReadBits reads nbits bits (MSB first) and returns them right-aligned.
// nbits must be in [0, 32]. On underflow it records an error and returns 0.
func (r *BitReader) ReadBits(nbits uint) uint32 {
	if nbits > 32 {
		panic(fmt.Sprintf("xdr: ReadBits width %d out of range", nbits))
	}
	return uint32(r.ReadBits64(nbits))
}

// ReadBits64 reads nbits bits (MSB first) right-aligned into a uint64.
// nbits must be in [0, 64]. On underflow it records an error and returns 0,
// and so does every read after it: the offset stays past the end.
func (r *BitReader) ReadBits64(nbits uint) uint64 {
	v := bitsAt(r.buf, r.pos, nbits)
	if r.pos += nbits; r.pos > uint(len(r.buf))*8 {
		return r.overrun()
	}
	return v
}

// overrun records the error of a read past the end of the buffer.
func (r *BitReader) overrun() uint64 {
	if r.err == nil {
		r.err = fmt.Errorf("%w: bit read past end (%d bytes)", ErrShortBuffer, len(r.buf))
	}
	return 0
}

// ReadBitsBig reads nbits bits into dst in big-endian byte order.
// dst must have at least (nbits+7)/8 bytes.
func (r *BitReader) ReadBitsBig(dst []byte, nbits uint) {
	n := int((nbits + 7) / 8)
	rem := nbits % 8
	idx := 0
	if rem != 0 {
		dst[0] = byte(r.ReadBits(rem))
		idx = 1
	}
	for ; idx < n; idx++ {
		dst[idx] = byte(r.ReadBits(8))
	}
}
