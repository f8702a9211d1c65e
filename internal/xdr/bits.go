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

// BitReader unpacks values written by BitWriter. It keeps a 64-bit
// accumulator refilled a byte at a time from the buffer, so the common
// small-width reads on the XTC decode hot path are a shift and a mask
// instead of a per-byte loop.
type BitReader struct {
	buf []byte
	off int    // next byte of buf to load into acc
	acc uint64 // low n bits are valid, MSB-first stream order
	n   uint   // valid bits in acc
	err error
}

// NewBitReader returns a BitReader over p.
func NewBitReader(p []byte) *BitReader { return &BitReader{buf: p} }

// Err returns the first error encountered.
func (r *BitReader) Err() error { return r.err }

// fill tops up the accumulator from the buffer.
func (r *BitReader) fill() {
	if free := (64 - r.n) &^ 7; free >= 8 && r.off+8 <= len(r.buf) {
		// Bulk path: one 8-byte load supplies every whole byte of space.
		w := binary.BigEndian.Uint64(r.buf[r.off:])
		r.acc = r.acc<<free | w>>(64-free)
		r.off += int(free / 8)
		r.n += free
		return
	}
	for r.n <= 56 && r.off < len(r.buf) {
		r.acc = r.acc<<8 | uint64(r.buf[r.off])
		r.off++
		r.n += 8
	}
}

// mask64 returns a mask of the low nbits bits; nbits may be 64.
func mask64(nbits uint) uint64 {
	// Go defines shifts >= width as 0, so nbits == 64 yields ^uint64(0).
	return 1<<nbits - 1
}

// lowMask[n] is mask64(n) as a table: the load costs the inliner less than
// the shift, which keeps ReadBits64's fast path within its budget.
var lowMask = func() (t [65]uint64) {
	for n := range t {
		t[n] = mask64(uint(n))
	}
	return t
}()

// ReadBits reads nbits bits (MSB first) and returns them right-aligned.
// nbits must be in [0, 32]. On underflow it records an error and returns 0.
func (r *BitReader) ReadBits(nbits uint) uint32 {
	if nbits > 32 {
		panic(fmt.Sprintf("xdr: ReadBits width %d out of range", nbits))
	}
	if nbits <= r.n {
		r.n -= nbits
		return uint32(r.acc >> r.n & mask64(nbits))
	}
	return uint32(r.ReadBits64(nbits))
}

// ReadBits64 reads nbits bits (MSB first) right-aligned into a uint64.
// nbits must be in [0, 64]. On underflow it records an error and returns 0.
// The accumulator hit is small enough to inline into the XTC decode loop;
// the drain-and-refill lives out of line in readBits64Slow.
func (r *BitReader) ReadBits64(nbits uint) uint64 {
	if nbits <= r.n {
		r.n -= nbits
		return r.acc >> r.n & lowMask[nbits]
	}
	return r.readBits64Slow(nbits)
}

// readBits64Slow is ReadBits64 when the accumulator holds fewer than nbits
// bits: it also rejects a width over 64, which no accumulator can hold.
func (r *BitReader) readBits64Slow(nbits uint) uint64 {
	if nbits > 64 {
		panic(fmt.Sprintf("xdr: ReadBits64 width %d out of range", nbits))
	}
	if r.err != nil {
		return 0
	}
	// Drain the accumulator, refill, and take the remainder. One refill
	// always suffices: after the drain the accumulator is empty, so fill
	// loads at least 57 bits when the buffer has them, and need < 64.
	v := r.acc & mask64(r.n)
	need := nbits - r.n
	r.acc, r.n = 0, 0
	r.fill()
	if need > r.n {
		r.err = fmt.Errorf("%w: bit read past end (%d bytes)", ErrShortBuffer, len(r.buf))
		return 0
	}
	r.n -= need
	return v<<need | r.acc>>r.n&mask64(need)
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
