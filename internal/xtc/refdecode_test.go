package xtc

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/xdr"
)

// The reference decoder the fused kernel is held to: every atom is decoded
// into a natoms×3 int32 scratch with two divide instructions per packed
// triplet, and a second pass dequantizes the scratch into floats.
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

	r := xdr.NewBitReader(blob)
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
func unpackInts(r *xdr.BitReader, nbits uint, sizes []uint32, vals []uint32) {
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
	unpackIntsBig(r, nbits, sizes, vals)
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
// decompressCoords: a water-like cluster (fused ≤64-bit absolute and delta
// triplets), a box too wide for a combined triplet (bitSize == 0: three
// fixed-width fields), and a sparse box whose absolute triplet and delta
// runs both need more than 64 bits (unpackIntsBig on both sides).
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
			if wide || absBits > 64 || runBits[smallIdx] > 64 {
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
