package xtc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/xdr"
)

// The reference decoder the fused kernel is held to: every atom is decoded
// into a natoms×3 int32 scratch with two divide instructions per packed
// triplet, and a second pass dequantizes the scratch into floats. It reads
// its bits with its own reader, refBitReader, the accumulator the kernel
// used before it read positionally, and splits triplets wider than 64 bits
// byte by byte, so it shares no bit-reading code with the kernel.
// decompressCoords must return the same coordinate bits, or fail where this
// fails.

// refDecodeBytes decodes one frame the two-pass way. Only compressed frames
// of more than smallAtomThreshold atoms reach the kernel; every other input
// goes through decodeBytes, as it always did.
func refDecodeBytes(p []byte) (*Frame, error) {
	r := xdr.NewReader(p)
	if r.Int32() != MagicCompressed || r.Err() != nil {
		return decodeBytes(p)
	}
	f := &Frame{}
	natoms := decodeHeader(r, f)
	if err := r.Err(); err != nil {
		return nil, err
	}
	if natoms <= smallAtomThreshold {
		return decodeBytes(p)
	}
	if err := atomsFit(r, natoms, (natoms+7)/8); err != nil {
		return nil, err
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
	ints := make([]int32, natoms*3)
	if err := refDecompressCoords(blob, natoms, minInt, sizeInt, smallIdx, ints); err != nil {
		return nil, err
	}
	f.Coords = make([]Vec3, natoms)
	refDequantize(ints, f.Precision, f.Coords)
	return f, nil
}

// refDecompressCoords decodes the bit stream into quantized integers.
func refDecompressCoords(blob []byte, natoms int, minInt [3]int32, sizeInt [3]uint32, smallIdx int, out []int32) error {
	if smallIdx < firstIdx || smallIdx > lastIdx {
		return fmt.Errorf("xtc: small index %d out of range [%d,%d]", smallIdx, firstIdx, lastIdx)
	}
	if sizeInt[0] == 0 || sizeInt[1] == 0 || sizeInt[2] == 0 {
		return fmt.Errorf("xtc: empty coordinate extent %v", sizeInt)
	}
	st := newCoderState(smallIdx)

	bitSize := uint(0)
	var bitSizeInt [3]uint
	if sizeInt[0] > 0xffffff || sizeInt[1] > 0xffffff || sizeInt[2] > 0xffffff {
		for d := 0; d < 3; d++ {
			bitSizeInt[d] = sizeOfInt(sizeInt[d])
		}
	} else {
		bitSize = sizeOfInts(sizeInt[:])
	}

	r := &refBitReader{buf: blob}
	readAbs := func(i int) {
		var vals [3]uint32
		if bitSize == 0 {
			for d := 0; d < 3; d++ {
				vals[d] = r.ReadBits(bitSizeInt[d])
			}
		} else {
			unpackInts(r, bitSize, sizeInt[:], vals[:])
		}
		for d := 0; d < 3; d++ {
			out[i*3+d] = int32(int64(vals[d]) + int64(minInt[d]))
		}
	}

	i := 0
	for i < natoms {
		readAbs(i)
		prev := [3]int32{out[i*3], out[i*3+1], out[i*3+2]}
		i++

		field := r.ReadBits(5)
		if r.Err() != nil {
			return r.Err()
		}
		dir := int(field%3) - 1
		run := (int(field) - (dir + 1)) / 3
		if run < 0 || run > maxRunAtoms || i+run > natoms {
			return fmt.Errorf("xtc: corrupt run field %d at atom %d/%d", field, i, natoms)
		}
		sizes := [3]uint32{st.sizeSmall, st.sizeSmall, st.sizeSmall}
		for k := 0; k < run; k++ {
			var vals [3]uint32
			unpackInts(r, st.nbitsRun, sizes[:], vals[:])
			for d := 0; d < 3; d++ {
				prev[d] += int32(vals[d]) - st.smallNum
				out[i*3+d] = prev[d]
			}
			i++
		}
		st.adjust(dir)
	}
	return r.Err()
}

// refDequantize converts quantized integers back to float coordinates.
func refDequantize(ints []int32, precision float32, out []Vec3) {
	inv := 1.0 / float64(precision)
	for i := range out {
		for d := 0; d < 3; d++ {
			out[i][d] = float32(float64(ints[i*3+d]) * inv)
		}
	}
}

// unpackInts reads nbits bits from r and splits them back into len(sizes)
// values by division, the inverse of packInts.
func unpackInts(r *refBitReader, nbits uint, sizes []uint32, vals []uint32) {
	if nbits <= 64 && len(sizes) == 3 {
		v := r.ReadBits64(nbits)
		s1, s2 := uint64(sizes[1]), uint64(sizes[2])
		q := v / s2
		vals[2] = uint32(v - q*s2)
		v = q / s1
		vals[1] = uint32(q - v*s1)
		vals[0] = uint32(v)
		return
	}
	refUnpackIntsBig(r, nbits, sizes, vals)
}

// refUnpackIntsBig is the multi-precision split of a combined value wider
// than 64 bits, a byte at a time.
func refUnpackIntsBig(r *refBitReader, nbits uint, sizes []uint32, vals []uint32) {
	total := int((nbits + 7) / 8)
	var be [16]byte
	r.ReadBitsBig(be[:total], nbits)
	// Convert to little-endian working form.
	var bytes [16]byte
	for i := 0; i < total; i++ {
		bytes[i] = be[total-1-i]
	}
	nbytes := total
	for i := len(sizes) - 1; i > 0; i-- {
		// vals[i] = bytes % sizes[i]; bytes /= sizes[i]
		var rem uint64
		for j := nbytes - 1; j >= 0; j-- {
			rem = rem<<8 | uint64(bytes[j])
			q := rem / uint64(sizes[i])
			bytes[j] = byte(q)
			rem -= q * uint64(sizes[i])
		}
		vals[i] = uint32(rem)
	}
	var v uint64
	for j := nbytes - 1; j >= 0; j-- {
		v = v<<8 | uint64(bytes[j])
	}
	vals[0] = uint32(v)
}

// refBitReader reads bits MSB first through a 64-bit accumulator refilled
// from the buffer, a whole 8-byte load when there is room and otherwise a
// byte at a time.
type refBitReader struct {
	buf []byte
	off int    // next byte of buf to load into acc
	acc uint64 // low n bits are valid, MSB-first stream order
	n   uint   // valid bits in acc
	err error
}

// Err returns the first error encountered.
func (r *refBitReader) Err() error { return r.err }

// fill tops up the accumulator from the buffer.
func (r *refBitReader) fill() {
	if free := (64 - r.n) &^ 7; free >= 8 && r.off+8 <= len(r.buf) {
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

// ReadBits reads nbits (at most 32) bits.
func (r *refBitReader) ReadBits(nbits uint) uint32 { return uint32(r.ReadBits64(nbits)) }

// ReadBits64 reads nbits (at most 64) bits; on underflow it records an
// error and returns 0.
func (r *refBitReader) ReadBits64(nbits uint) uint64 {
	if nbits <= r.n {
		r.n -= nbits
		return r.acc >> r.n & (1<<nbits - 1)
	}
	if r.err != nil {
		return 0
	}
	// Drain the accumulator, refill, and take the remainder. One refill
	// always suffices: after the drain the accumulator is empty, so fill
	// loads at least 57 bits when the buffer has them, and need < 64.
	v := r.acc & (1<<r.n - 1)
	need := nbits - r.n
	r.acc, r.n = 0, 0
	r.fill()
	if need > r.n {
		r.err = fmt.Errorf("%w: bit read past end (%d bytes)", xdr.ErrShortBuffer, len(r.buf))
		return 0
	}
	r.n -= need
	return v<<need | r.acc>>r.n&(1<<need-1)
}

// ReadBitsBig reads nbits bits into dst in big-endian byte order.
func (r *refBitReader) ReadBitsBig(dst []byte, nbits uint) {
	n := int((nbits + 7) / 8)
	idx := 0
	if rem := nbits % 8; rem != 0 {
		dst[0] = byte(r.ReadBits(rem))
		idx = 1
	}
	for ; idx < n; idx++ {
		dst[idx] = byte(r.ReadBits(8))
	}
}

// sameDecode reports how the kernel's result differs from the reference's:
// both must fail, or both must return the same header and coordinate bits.
func sameDecode(got *Frame, gotErr error, want *Frame, wantErr error) error {
	if (gotErr == nil) != (wantErr == nil) {
		return fmt.Errorf("kernel err %v, reference err %v", gotErr, wantErr)
	}
	if gotErr != nil {
		return nil
	}
	if got.Step != want.Step || math.Float32bits(got.Time) != math.Float32bits(want.Time) ||
		math.Float32bits(got.Precision) != math.Float32bits(want.Precision) || len(got.Coords) != len(want.Coords) {
		return fmt.Errorf("header: kernel step %d time %g precision %g atoms %d, reference %d %g %g %d",
			got.Step, got.Time, got.Precision, len(got.Coords), want.Step, want.Time, want.Precision, len(want.Coords))
	}
	for d := range got.Box {
		if math.Float32bits(got.Box[d]) != math.Float32bits(want.Box[d]) {
			return fmt.Errorf("box[%d]: kernel %g, reference %g", d, got.Box[d], want.Box[d])
		}
	}
	for i := range got.Coords {
		for d := 0; d < 3; d++ {
			if math.Float32bits(got.Coords[i][d]) != math.Float32bits(want.Coords[i][d]) {
				return fmt.Errorf("atom %d dim %d: kernel %g, reference %g", i, d, got.Coords[i][d], want.Coords[i][d])
			}
		}
	}
	return nil
}

// kernelPathFrames are encoded frames that between them take every arm of
// decompressCoords: a water-like cluster (absolute and delta triplets each
// one xdr.LoadBits), a box too wide for a combined triplet (bitSize == 0:
// three fixed-width fields), a sparse box whose absolute triplet and delta
// runs both need more than 64 bits, and one whose absolute triplet needs
// 58 to 64 bits (unpackWide, the last three, for a field a single load
// cannot hold).
func kernelPathFrames(tb testing.TB) map[string][]byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(11))
	uniform := func(n int, lo, hi float64) []Vec3 {
		c := make([]Vec3, n)
		for i := range c {
			for d := 0; d < 3; d++ {
				c[i][d] = float32(lo + rng.Float64()*(hi-lo))
			}
		}
		return c
	}
	frames := map[string]*Frame{
		"cluster": {Step: 1, Time: 2, Precision: 1000, Coords: makeCluster(rng, 3000, 4)},
		"huge":    {Step: 2, Time: 4, Precision: 1000, Coords: uniform(400, -20000, 20000)},
		"wide":    {Step: 3, Time: 6, Precision: 1000, Coords: uniform(400, 0, 5000)},
		"sparse":  {Step: 4, Time: 8, Precision: 1000, Coords: uniform(400, 0, 800)},
	}
	// The sparse box only crosses 64 bits per delta triplet if its atoms
	// come in runs of near neighbours: pair each atom with a close copy.
	wide := frames["wide"].Coords
	for i := 1; i < len(wide); i += 2 {
		for d := 0; d < 3; d++ {
			wide[i][d] = wide[i-1][d] + float32(rng.Float64()*2000)
		}
	}
	out := map[string][]byte{}
	for name, f := range frames {
		w := xdr.NewWriter(1 << 16)
		if err := f.AppendEncoded(w); err != nil {
			tb.Fatal(err)
		}
		out[name] = w.Bytes()
	}
	return out
}

// compressedParams reads the coding parameters of an encoded compressed
// frame: the extents and the initial small index after the header,
// precision and minimum.
func compressedParams(p []byte) (sizeInt [3]uint32, smallIdx int) {
	r := xdr.NewReader(p[headerLen+4+12:])
	for d := 0; d < 3; d++ {
		sizeInt[d] = r.Uint32()
	}
	return sizeInt, int(r.Int32())
}

// TestKernelPaths: the frames kernelPathFrames promises do take the arms it
// names, and on each the kernel matches the reference bit for bit.
func TestKernelPaths(t *testing.T) {
	frames := kernelPathFrames(t)
	for name, p := range frames {
		sizeInt, smallIdx := compressedParams(p)
		wide := sizeInt[0] > 0xffffff || sizeInt[1] > 0xffffff || sizeInt[2] > 0xffffff
		absBits := sizeOfInts(sizeInt[:])
		switch name {
		case "cluster":
			if wide || absBits > xdr.MaxLoadBits || runBits[smallIdx] > xdr.MaxLoadBits {
				t.Errorf("%s: extents %v small index %d leave the fused arms", name, sizeInt, smallIdx)
			}
		case "huge":
			if !wide {
				t.Errorf("%s: extents %v fit a combined triplet", name, sizeInt)
			}
		case "wide":
			if wide || absBits <= 64 || runBits[smallIdx] <= 64 {
				t.Errorf("%s: extents %v (%d bits) small index %d (%d bits) do not exceed 64 bits",
					name, sizeInt, absBits, smallIdx, runBits[smallIdx])
			}
		case "sparse":
			if wide || absBits <= xdr.MaxLoadBits || absBits > 64 {
				t.Errorf("%s: extents %v need %d bits, not 58 to 64", name, sizeInt, absBits)
			}
		}
		got, gerr := DecodeFrameBytes(p)
		want, werr := refDecodeBytes(p)
		if werr != nil {
			t.Fatalf("%s: reference: %v", name, werr)
		}
		if err := sameDecode(got, gerr, want, werr); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// cutBlob returns the encoded compressed frame p with its coordinate blob
// cut short by k bytes: the length word rewritten and the padding redone,
// so the frame still parses and only the bit stream ends early.
func cutBlob(p []byte, k int) []byte {
	off := headerLen + 4 + 12 + 12 + 4
	n := int(binary.BigEndian.Uint32(p[off:])) - k
	q := binary.BigEndian.AppendUint32(append([]byte(nil), p[:off]...), uint32(n))
	q = append(q, p[off+4:off+4+n]...)
	return append(q, make([]byte, (4-n%4)%4)...)
}

// TestDecodeCutBlob: a bit stream that ends before its last atoms must fail
// as a short buffer, in the kernel as in the reference, however few bytes
// are missing. The last byte a writer flushes holds at least one field
// bit, so a cut of one byte already takes real bits, and the kernel must
// tell from its offset alone, while it reads the zero-padded tail.
func TestDecodeCutBlob(t *testing.T) {
	for name, p := range kernelPathFrames(t) {
		for k := 1; k <= 24; k++ {
			q := cutBlob(p, k)
			got, gerr := DecodeFrameBytes(q)
			want, werr := refDecodeBytes(q)
			if !errors.Is(werr, xdr.ErrShortBuffer) {
				t.Fatalf("%s cut by %d: reference err %v, want a short buffer", name, k, werr)
			}
			if err := sameDecode(got, gerr, want, werr); err != nil || !errors.Is(gerr, xdr.ErrShortBuffer) {
				t.Errorf("%s cut by %d: kernel err %v (%v)", name, k, gerr, err)
			}
		}
	}
}

// TestDivisorExact holds the reciprocal divisor to the divide instruction at
// the numerators where a multiply-high estimate goes wrong first: 0, d-1, d,
// the largest packed triplet small³-1 (capped at 2^64-1) and 2^64-1, plus the
// neighbours of random multiples of d. The divisors are every magicints
// entry (through magicDivs, the table the coder loads) and per-frame extents
// from 1 to 2^32-1: every power of two and its neighbours, and random ones.
func TestDivisorExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	check := func(name string, v divisor, d uint64) {
		t.Helper()
		cube := uint64(math.MaxUint64)
		if d < 1<<21 {
			cube = d*d*d - 1
		}
		ns := []uint64{0, d - 1, d, cube, math.MaxUint64}
		for k := 0; k < 8; k++ {
			m := (rng.Uint64() / d) * d
			ns = append(ns, m, m-1, m+d-1, rng.Uint64())
		}
		for _, n := range ns {
			q, r := v.divmod(n)
			if q != n/d || r != n%d {
				t.Fatalf("%s: %d / %d = %d rem %d, want %d rem %d", name, n, d, q, r, n/d, n%d)
			}
		}
	}
	for i := firstIdx; i <= lastIdx; i++ {
		d := magicints[i]
		if magicDivs[i] != newDivisor(d) {
			t.Fatalf("magicDivs[%d] = %+v, want the divisor of %d", i, magicDivs[i], d)
		}
		check(fmt.Sprintf("magicints[%d]", i), magicDivs[i], uint64(d))
	}
	extents := []uint32{1, 3, 7, 10, 1000, 0xffffff, 0x1000001, math.MaxUint32}
	for k := 1; k < 32; k++ {
		extents = append(extents, 1<<k-1, 1<<k, 1<<k+1)
	}
	for k := 0; k < 200; k++ {
		extents = append(extents, rng.Uint32()|1, rng.Uint32()>>uint(rng.Intn(32))|1)
	}
	for _, d := range extents {
		check(fmt.Sprintf("extent %d", d), newDivisor(d), uint64(d))
	}
}
