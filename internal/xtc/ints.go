package xtc

import "repro/internal/xdr"

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

// unpackIntsBig is the general multi-precision path for combined values
// wider than 64 bits (huge per-frame bounding boxes).
func unpackIntsBig(r *xdr.BitReader, nbits uint, sizes []uint32, vals []uint32) {
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
