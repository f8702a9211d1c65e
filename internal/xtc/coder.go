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
	smallNum  int32  // half of magicints[smallIdx]
	sizeSmall uint32 // magicints[smallIdx]
	smaller   int32  // half of magicints[smallIdx-1]
	nbitsRun  uint   // bits for one delta triplet at smallIdx
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
	sizes := [3]uint32{s.sizeSmall, s.sizeSmall, s.sizeSmall}
	s.nbitsRun = sizeOfInts(sizes[:])
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

// decompressCoords is the inverse of compressCoords.
func decompressCoords(blob []byte, natoms int, minInt [3]int32, sizeInt [3]uint32, smallIdx int, out []int32) error {
	if smallIdx < firstIdx || smallIdx > lastIdx {
		return fmt.Errorf("xtc: small index %d out of range [%d,%d]", smallIdx, firstIdx, lastIdx)
	}
	if sizeInt[0] == 0 || sizeInt[1] == 0 || sizeInt[2] == 0 {
		// An extent is max-min+1; zero would divide the unpacking by zero.
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
		if st.nbitsRun <= 64 {
			// Fused small-delta path: the whole triplet is one <=64-bit
			// accumulator read split by two divisions, decoded straight
			// into out without the per-value call and slice traffic of
			// the generic unpackInts. This loop is the decode hot spot.
			small := uint64(st.sizeSmall)
			nb, sn := st.nbitsRun, st.smallNum
			for k := 0; k < run; k++ {
				v := r.ReadBits64(nb)
				q := v / small
				z := int32(v - q*small)
				x64 := q / small
				y := int32(q - x64*small)
				prev[0] += int32(x64) - sn
				prev[1] += y - sn
				prev[2] += z - sn
				out[i*3] = prev[0]
				out[i*3+1] = prev[1]
				out[i*3+2] = prev[2]
				i++
			}
		} else {
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
		}
		st.adjust(dir)
	}
	return r.Err()
}

// dequantize converts quantized integers back to float coordinates.
func dequantize(ints []int32, precision float32, out []Vec3) {
	inv := 1.0 / float64(precision)
	for i := range out {
		for d := 0; d < 3; d++ {
			out[i][d] = float32(float64(ints[i*3+d]) * inv)
		}
	}
}
