package xtc

import (
	"math/bits"

	"repro/internal/xdr"
)

// packInts combines vals (each in [0, sizes[i])) into one multi-precision
// integer N = ((vals[0]*sizes[1]) + vals[1])*sizes[2] + vals[2] ... and
// writes exactly nbits bits of it to w, most-significant bit first.
// nbits must come from sizeOfInts(sizes). Combined values of up to 64 bits
// — every delta run and almost every absolute triplet — take a fused fast
// path: two uint64 multiplies and one accumulator write, the exact inverse
// of decompressCoords' two reciprocal divisions.
func packInts(w *xdr.BitWriter, nbits uint, sizes, vals []uint32) {
	if nbits <= 64 && len(sizes) == 3 {
		v := (uint64(vals[0])*uint64(sizes[1])+uint64(vals[1]))*uint64(sizes[2]) + uint64(vals[2])
		w.WriteBits64(v, nbits)
		return
	}
	packIntsBig(w, nbits, sizes, vals)
}

// packIntsBig is the general byte-wise multi-precision path for combined
// values wider than 64 bits (huge per-frame bounding boxes).
func packIntsBig(w *xdr.BitWriter, nbits uint, sizes, vals []uint32) {
	// Multi-precision accumulate in little-endian bytes.
	var bytes [16]byte
	nbytes := 1
	bytes[0] = 0
	for i, v := range vals {
		// bytes = bytes*sizes[i] + v
		carry := uint64(v)
		for j := 0; j < nbytes; j++ {
			carry += uint64(bytes[j]) * uint64(sizes[i])
			bytes[j] = byte(carry)
			carry >>= 8
		}
		for carry != 0 {
			bytes[nbytes] = byte(carry)
			carry >>= 8
			nbytes++
		}
	}
	// Emit as big-endian using exactly nbits bits.
	total := int((nbits + 7) / 8)
	var be [16]byte
	for i := 0; i < total; i++ {
		if j := total - 1 - i; j < nbytes {
			be[i] = bytes[j]
		}
	}
	w.WriteBitsBig(be[:total], nbits)
}

// unpackWide splits a packed triplet of more than xdr.MaxLoadBits bits (up
// to 96: sparse or huge boxes), the nbits at bit offset pos of buf, into its
// three values, the inverse of packInts: two loads assemble it as a 128-bit
// h:l, which two long divisions split by s2 and then s1. Like LoadBits, it
// needs 8 bytes of buf at each load's first byte.
func unpackWide(buf []byte, pos, nbits uint, s1, s2 uint32) [3]uint32 {
	const low = 48
	hi := xdr.LoadBits(buf, pos, nbits-low)
	h, l := hi>>(64-low), hi<<low|xdr.LoadBits(buf, pos+nbits-low, low)
	h, l, z := div128(h, l, s2)
	_, l, y := div128(h, l, s1)
	return [3]uint32{uint32(l), y, z}
}

// div128 divides h:l by s and returns the quotient and the remainder.
func div128(h, l uint64, s uint32) (qh, ql uint64, r uint32) {
	d := uint64(s)
	qh, rh := h/d, h%d
	ql, rl := bits.Div64(rh, l, d)
	return qh, ql, uint32(rl)
}
