package xtc

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/xdr"
)

// Vec3 is a single-precision 3-D coordinate in nanometers.
type Vec3 [3]float32

// Coordinate quantization limits: quantized values must stay well inside
// int32 so per-dimension spans fit uint32 arithmetic.
const (
	maxQuantized = 1 << 30
	// maxRunAtoms is the longest delta-coded run following an absolutely
	// coded atom (8 atoms = 24 ints, matching the XTC 5-bit run field).
	maxRunAtoms = 8
)

// ErrPrecision is returned when a coordinate does not fit the quantization
// range at the requested precision.
var ErrPrecision = errors.New("xtc: coordinate exceeds quantization range")

// coderState holds the adaptive small-delta width shared by the compressor
// and decompressor. Both sides must evolve it identically.
type coderState struct {
	smallIdx  int
	minIdx    int
	maxIdx    int
	smallNum  int32   // half of magicints[smallIdx]
	sizeSmall uint32  // magicints[smallIdx]
	smaller   int32   // half of magicints[smallIdx-1]
	nbitsRun  uint    // bits for one delta triplet at smallIdx
	div       divisor // divides by magicints[smallIdx]
}

func newCoderState(smallIdx int) coderState {
	s := coderState{smallIdx: smallIdx}
	s.maxIdx = smallIdx + 8
	if s.maxIdx > lastIdx {
		s.maxIdx = lastIdx
	}
	s.minIdx = s.maxIdx - 8
	if s.minIdx < firstIdx {
		s.minIdx = firstIdx
	}
	s.refresh()
	return s
}

func (s *coderState) refresh() {
	s.smallNum = int32(magicints[s.smallIdx] / 2)
	s.sizeSmall = magicints[s.smallIdx]
	prev := s.smallIdx - 1
	if prev < firstIdx {
		prev = firstIdx
	}
	s.smaller = int32(magicints[prev] / 2)
	s.nbitsRun = runBits[s.smallIdx]
	s.div = magicDivs[s.smallIdx]
}

// runBits[i] is the width of one delta triplet at table index i,
// sizeOfInts of three magicints[i].
var runBits = func() (t [len(magicints)]uint) {
	for i := firstIdx; i <= lastIdx; i++ {
		m := magicints[i]
		t[i] = sizeOfInts([]uint32{m, m, m})
	}
	return t
}()

// magicDivs[i] divides by magicints[i]: one reciprocal per table entry, so
// an adapting coder switches divisors with a load.
var magicDivs = func() (t [len(magicints)]divisor) {
	for i := firstIdx; i <= lastIdx; i++ {
		t[i] = newDivisor(magicints[i])
	}
	return t
}()

// divisor divides a uint64 by a fixed d >= 1 without a divide instruction
// (Granlund–Montgomery): the quotient estimate is the high word of n times
// m = floor((2^64-1)/d). Since d*m lies in (2^64-d, 2^64), the estimate is
// the true quotient or one less, and one correction step settles it.
type divisor struct{ d, m uint64 }

func newDivisor(d uint32) divisor {
	return divisor{d: uint64(d), m: math.MaxUint64 / uint64(d)}
}

// divmod returns n/d and n%d.
func (v divisor) divmod(n uint64) (q, r uint64) {
	q, _ = bits.Mul64(n, v.m)
	r = n - q*v.d
	if r >= v.d {
		q++
		r -= v.d
	}
	return q, r
}

// adjust moves the small index by dir (-1, 0, +1), clamped to the window
// fixed at frame start.
func (s *coderState) adjust(dir int) {
	idx := s.smallIdx + dir
	if idx < s.minIdx {
		idx = s.minIdx
	}
	if idx > s.maxIdx {
		idx = s.maxIdx
	}
	if idx != s.smallIdx {
		s.smallIdx = idx
		s.refresh()
	}
}

// quantize converts coords to integers at the given precision. The inner
// loop avoids the per-coordinate sign branch (coordinates alternate sign
// unpredictably): Abs/Copysign are compiler intrinsics that reduce to bit
// masks, and a single !(|f| < max) compare also rejects NaN, since NaN
// fails every comparison.
func quantize(coords []Vec3, precision float32, out []int32) error {
	for i, c := range coords {
		for d := 0; d < 3; d++ {
			f := float64(c[d]) * float64(precision)
			if !(math.Abs(f) < maxQuantized) {
				return fmt.Errorf("%w: atom %d dim %d value %g at precision %g",
					ErrPrecision, i, d, c[d], precision)
			}
			out[i*3+d] = int32(f + math.Copysign(0.5, f))
		}
	}
	return nil
}

// halfMagic[i] = magicints[i]/2, the per-component bound the small-delta
// coder tests against, precomputed so hot loops compare in uint32. Three
// all-ones sentinel entries pad the tail so initialSmallIdx's fixed
// three-probe lookup never reads out of bounds (no real bound reaches
// MaxUint32, so the sentinels never count).
var halfMagic = func() (t [len(magicints) + 3]uint32) {
	for i, m := range magicints {
		t[i] = m / 2
	}
	for i := len(magicints); i < len(t); i++ {
		t[i] = math.MaxUint32
	}
	return t
}()

// smallIdxStart[L] is the first usable table index whose half-size exceeds
// the smallest value of bit length L, so the per-delta table lookup in
// initialSmallIdx starts at most a couple of entries early instead of
// scanning the whole table (the ratio between entries is ~2^(1/3), so at
// most three entries share a bit length).
var smallIdxStart = func() (t [34]int) {
	for l := range t {
		lo := uint32(0)
		if l > 0 {
			lo = 1 << (l - 1)
		}
		idx := firstIdx
		for idx < lastIdx && halfMagic[idx] <= lo {
			idx++
		}
		t[l] = idx
	}
	return t
}()

// initialSmallIdx picks the starting table index so that roughly 60% of
// consecutive-atom displacements fit the small-delta coder. (The original
// XTC uses the single smallest displacement, which under-shoots badly when
// a frame mixes tightly bonded hydrogens with molecule-to-molecule hops;
// the in-stream adaptation window is anchored at this index, so a robust
// percentile start compresses noticeably better. See DESIGN.md.)
//
// This pre-pass touches every atom once, so its inner loop is branchless:
// quantized values are bounded by ±2^30, deltas therefore fit int32 exactly,
// and the arithmetic-shift absolute value plus uint32 compares emit no
// data-dependent branches (which mispredict ~50% on thermal-noise deltas).
func initialSmallIdx(ints []int32) int {
	n := len(ints) / 3
	if n < 2 {
		return firstIdx
	}
	// Histogram of the table index each consecutive delta needs.
	var hist [len(magicints)]int
	px, py, pz := ints[0], ints[1], ints[2]
	for i := 1; i < n; i++ {
		x, y, z := ints[i*3], ints[i*3+1], ints[i*3+2]
		dx, dy, dz := x-px, y-py, z-pz
		px, py, pz = x, y, z
		mx, my, mz := dx>>31, dy>>31, dz>>31
		ax := uint32((dx ^ mx) - mx)
		ay := uint32((dy ^ my) - my)
		az := uint32((dz ^ mz) - mz)
		need := ax
		if ay > need {
			need = ay
		}
		if az > need {
			need = az
		}
		// The table ratio is ~2^(1/3), so at most three entries share a
		// bit length: the residual scan is a fixed prefix count over three
		// probes of the monotone table (a variable-trip loop here
		// mispredicts on nearly every delta).
		idx := smallIdxStart[bits.Len32(need)]
		c0, c1, c2 := 0, 0, 0
		if halfMagic[idx] <= need {
			c0 = 1
		}
		if halfMagic[idx+1] <= need {
			c1 = 1
		}
		if halfMagic[idx+2] <= need {
			c2 = 1
		}
		idx += c0 + c1 + c2
		if idx > lastIdx {
			idx = lastIdx
		}
		hist[idx]++
	}
	target := (n - 1) * 3 / 5
	cum := 0
	for idx := firstIdx; idx <= lastIdx; idx++ {
		cum += hist[idx]
		if cum > target {
			return idx
		}
	}
	return lastIdx
}

// frameBounds computes per-dimension min and span of the quantized coords.
func frameBounds(ints []int32) (minInt [3]int32, sizeInt [3]uint32) {
	for d := 0; d < 3; d++ {
		minInt[d] = math.MaxInt32
	}
	var maxInt [3]int32
	for d := 0; d < 3; d++ {
		maxInt[d] = math.MinInt32
	}
	for i := 0; i < len(ints); i += 3 {
		for d := 0; d < 3; d++ {
			v := ints[i+d]
			if v < minInt[d] {
				minInt[d] = v
			}
			if v > maxInt[d] {
				maxInt[d] = v
			}
		}
	}
	if len(ints) == 0 {
		minInt = [3]int32{}
		maxInt = [3]int32{}
	}
	for d := 0; d < 3; d++ {
		sizeInt[d] = uint32(int64(maxInt[d]) - int64(minInt[d]) + 1)
	}
	return minInt, sizeInt
}

// compressCoords writes the bit stream for the quantized coordinates into w
// (a pooled writer on the hot path). Returns the chosen initial small index
// (stored in the frame header).
func compressCoords(w *xdr.BitWriter, ints []int32, minInt [3]int32, sizeInt [3]uint32) (smallIdx int) {
	natoms := len(ints) / 3
	smallIdx = initialSmallIdx(ints)
	st := newCoderState(smallIdx)

	// Absolute-coding widths.
	bitSize := uint(0)
	var bitSizeInt [3]uint
	if sizeInt[0] > 0xffffff || sizeInt[1] > 0xffffff || sizeInt[2] > 0xffffff {
		for d := 0; d < 3; d++ {
			bitSizeInt[d] = sizeOfInt(sizeInt[d])
		}
	} else {
		bitSize = sizeOfInts(sizeInt[:])
	}

	i := 0
	for i < natoms {
		// Absolutely coded atom.
		var vals [3]uint32
		for d := 0; d < 3; d++ {
			vals[d] = uint32(int64(ints[i*3+d]) - int64(minInt[d]))
		}
		if bitSize == 0 {
			for d := 0; d < 3; d++ {
				w.WriteBits(vals[d], bitSizeInt[d])
			}
		} else {
			packInts(w, bitSize, sizeInt[:], vals[:])
		}
		prev := [3]int32{ints[i*3], ints[i*3+1], ints[i*3+2]}
		i++

		// Collect the delta run, storing each triplet already biased by
		// smallNum (the form both the fits test and the packer consume; the
		// state only adapts between runs, so the bias is constant here).
		// fitsSmall's two signed comparisons per component collapse into
		// one unsigned one: a negative biased component wraps to a huge
		// uint32 and fails the < sizeSmall test the same way.
		var biased [maxRunAtoms][3]uint32
		sn, sizeSmall, smaller := st.smallNum, st.sizeSmall, st.smaller
		run := 0
		allSmaller := true
		for i < natoms && run < maxRunAtoms {
			dx := ints[i*3] - prev[0]
			dy := ints[i*3+1] - prev[1]
			dz := ints[i*3+2] - prev[2]
			bx, by, bz := uint32(dx+sn), uint32(dy+sn), uint32(dz+sn)
			if bx >= sizeSmall || by >= sizeSmall || bz >= sizeSmall {
				break
			}
			if allSmaller &&
				(dx > smaller || dx < -smaller ||
					dy > smaller || dy < -smaller ||
					dz > smaller || dz < -smaller) {
				allSmaller = false
			}
			biased[run] = [3]uint32{bx, by, bz}
			prev[0], prev[1], prev[2] = ints[i*3], ints[i*3+1], ints[i*3+2]
			run++
			i++
		}

		// Adaptation: full run of strictly smaller deltas tightens; an
		// empty run loosens for the next group.
		dir := 0
		switch {
		case run == maxRunAtoms && allSmaller && st.smallIdx > st.minIdx:
			dir = -1
		case run == 0 && st.smallIdx < st.maxIdx:
			dir = 1
		}

		// 5-bit run field: 3*runAtoms + (dir+1), exactly as XTC.
		w.WriteBits(uint32(3*run+dir+1), 5)
		if st.nbitsRun <= 64 {
			// Fused small-delta path, the encode hot spot: each biased
			// triplet combines with two uint64 multiplies into one <=64-bit
			// accumulator write, with no per-value call or slice traffic.
			// The mirror of decompressCoords' fused run loop.
			small := uint64(sizeSmall)
			nb := st.nbitsRun
			for k := 0; k < run; k++ {
				x := uint64(biased[k][0])
				y := uint64(biased[k][1])
				z := uint64(biased[k][2])
				w.WriteBits64((x*small+y)*small+z, nb)
			}
		} else {
			sizes := [3]uint32{sizeSmall, sizeSmall, sizeSmall}
			for k := 0; k < run; k++ {
				packIntsBig(w, st.nbitsRun, sizes[:], biased[k][:])
			}
		}
		st.adjust(dir)
	}
	return smallIdx
}

// iterBits bounds the bits one outer iteration of decompressCoords reads:
// an absolutely coded atom, its 5-bit run field and up to maxRunAtoms delta
// triplets, none of the four wider than three 32-bit values.
const iterBits = 3*32 + 5 + maxRunAtoms*3*32

// tailBytes sizes the zero-padded copy of a blob's end that decompressCoords
// reads its last iterations from: what is left when it switches (under
// iterBits+64 bits and a byte), the iterBits a corrupt run may read past
// the end before its run field is checked, and an 8-byte load beyond that.
const tailBytes = (2*iterBits+72)/8 + 8

// decompressCoords is the inverse of quantize and compressCoords in one
// pass: it decodes the bit stream into the running integer triplet and
// writes each atom to out as soon as it has it, dequantized as
// float32(float64(q) * (1/precision)) — the expression the stored float
// bits are pinned to (TestDecodeGoldenBytes). The divisions that split a
// packed triplet are multiplies by a reciprocal (divisor): the small-delta
// divisor comes from the magicints table, the absolute atom's two from this
// frame's extents. len(out) is the atom count.
//
// Fields are read positionally: pos, a local, is the bit offset of the next
// field in buf, and each field is one xdr.LoadBits, so no field's offset
// waits on a refill branch and the loads of one run overlap. LoadBits needs
// 8 bytes of buf at a field's first byte; once an iteration could reach
// within 8 bytes of the blob's end, buf becomes tail, a zero-padded copy of
// what is left. A read past the end then reads zeros, and the offset tells:
// pos is checked against end at every run field and once at the end.
func decompressCoords(blob []byte, minInt [3]int32, sizeInt [3]uint32, smallIdx int, precision float32, out []Vec3) error {
	if smallIdx < firstIdx || smallIdx > lastIdx {
		return fmt.Errorf("xtc: small index %d out of range [%d,%d]", smallIdx, firstIdx, lastIdx)
	}
	if sizeInt[0] == 0 || sizeInt[1] == 0 || sizeInt[2] == 0 {
		// An extent is max-min+1; zero would divide the unpacking by zero.
		return fmt.Errorf("xtc: empty coordinate extent %v", sizeInt)
	}
	st := newCoderState(smallIdx)
	inv := 1.0 / float64(precision)

	bitSize := uint(0)
	var bitSizeInt [3]uint
	if sizeInt[0] > 0xffffff || sizeInt[1] > 0xffffff || sizeInt[2] > 0xffffff {
		for d := 0; d < 3; d++ {
			bitSizeInt[d] = sizeOfInt(sizeInt[d])
		}
	} else {
		bitSize = sizeOfInts(sizeInt[:])
	}
	div1, div2 := newDivisor(sizeInt[1]), newDivisor(sizeInt[2])

	buf, pos, end := blob, uint(0), uint(len(blob))*8
	var tail [tailBytes]byte
	padded := false
	natoms := len(out)
	i := 0
	for i < natoms {
		if !padded && pos+iterBits+64 > uint(len(buf))*8 {
			copy(tail[:], buf[pos>>3:])
			buf, padded = tail[:], true
			end -= pos &^ 7
			pos &= 7
		}
		// Absolutely coded atom: the combined triplet split by this
		// frame's extents, or (huge boxes) three fixed-width fields.
		var vals [3]uint32
		switch {
		case bitSize == 0:
			for d := 0; d < 3; d++ {
				vals[d] = uint32(xdr.LoadBits(buf, pos, bitSizeInt[d]))
				pos += bitSizeInt[d]
			}
		case bitSize <= xdr.MaxLoadBits:
			q, rz := div2.divmod(xdr.LoadBits(buf, pos, bitSize))
			qx, ry := div1.divmod(q)
			vals = [3]uint32{uint32(qx), uint32(ry), uint32(rz)}
			pos += bitSize
		default:
			vals = unpackWide(buf, pos, bitSize, sizeInt[1], sizeInt[2])
			pos += bitSize
		}
		x := int32(vals[0]) + minInt[0]
		y := int32(vals[1]) + minInt[1]
		z := int32(vals[2]) + minInt[2]
		out[i] = Vec3{float32(float64(x) * inv), float32(float64(y) * inv), float32(float64(z) * inv)}
		i++

		field := xdr.LoadBits(buf, pos, 5)
		if pos += 5; pos > end {
			return errPastEnd(blob)
		}
		dir := int(field%3) - 1
		run := (int(field) - (dir + 1)) / 3
		if run < 0 || run > maxRunAtoms || i+run > natoms {
			return fmt.Errorf("xtc: corrupt run field %d at atom %d/%d", field, i, natoms)
		}
		sn, dst := st.smallNum, out[i:i+run]
		if nb := st.nbitsRun; nb <= xdr.MaxLoadBits {
			// Fused small-delta path, the decode hot spot: the whole
			// triplet is one load split by two reciprocal divisions and
			// written out as floats.
			div := st.div
			for k := range dst {
				q, rz := div.divmod(xdr.LoadBits(buf, pos, nb))
				pos += nb
				qx, ry := div.divmod(q)
				x += int32(qx) - sn
				y += int32(ry) - sn
				z += int32(rz) - sn
				dst[k] = Vec3{float32(float64(x) * inv), float32(float64(y) * inv), float32(float64(z) * inv)}
			}
		} else {
			for k := range dst {
				vals = unpackWide(buf, pos, nb, st.sizeSmall, st.sizeSmall)
				pos += nb
				x += int32(vals[0]) - sn
				y += int32(vals[1]) - sn
				z += int32(vals[2]) - sn
				dst[k] = Vec3{float32(float64(x) * inv), float32(float64(y) * inv), float32(float64(z) * inv)}
			}
		}
		i += run
		if dir != 0 {
			st.adjust(dir)
		}
	}
	if pos > end {
		return errPastEnd(blob)
	}
	return nil
}

// errPastEnd is the error of a frame whose bit stream ends before its atoms.
func errPastEnd(blob []byte) error {
	return fmt.Errorf("%w: bit read past end (%d bytes)", xdr.ErrShortBuffer, len(blob))
}
