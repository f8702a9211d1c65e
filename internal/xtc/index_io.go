package xtc

import (
	"fmt"
	"math"

	"repro/internal/xdr"
)

// indexMagic guards serialized Index blobs. Version 1 entries are 20 bytes
// (offset, size, natoms); version 2 ("XID2") appends a per-frame CRC32C,
// the integrity anchor for verified reads and scrubbing. Readers accept
// both so datasets ingested before checksums still open.
const (
	indexMagic   = 0x58494458 // "XIDX"
	indexMagicV2 = 0x58494432 // "XID2"
)

// Marshal serializes the index (ADA stores one per subset dropping so
// random-access playback never re-scans the trajectory). An index with a
// complete per-frame checksum set serializes as version 2; anything else
// (legacy or partially checksummed) falls back to version 1.
func (x *Index) Marshal() []byte {
	if x.HasChecksums() {
		w := xdr.NewWriter(16 + 24*len(x.offsets))
		w.Uint32(indexMagicV2)
		w.Uint32(uint32(len(x.offsets)))
		for i := range x.offsets {
			w.Int64(x.offsets[i])
			w.Int64(x.sizes[i])
			w.Int32(x.natoms[i])
			w.Uint32(x.crcs[i])
		}
		return w.Bytes()
	}
	w := xdr.NewWriter(16 + 20*len(x.offsets))
	w.Uint32(indexMagic)
	w.Uint32(uint32(len(x.offsets)))
	for i := range x.offsets {
		w.Int64(x.offsets[i])
		w.Int64(x.sizes[i])
		w.Int32(x.natoms[i])
	}
	return w.Bytes()
}

// UnmarshalIndex parses a serialized index, either version. Its entries
// must tile the stream from offset 0: each starts where the last ended, is
// at least one byte long, and ends at an offset an int64 can hold. Whether
// the stream is that long is for the caller, who has it, to check
// (TotalBytes).
func UnmarshalIndex(data []byte) (*Index, error) {
	r := xdr.NewReader(data)
	magic := r.Uint32()
	entry := 0
	switch magic {
	case indexMagic:
		entry = 20
	case indexMagicV2:
		entry = 24
	default:
		return nil, fmt.Errorf("xtc: bad index magic %#x", magic)
	}
	n := r.Uint32()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if int(n)*entry > r.Remaining() {
		return nil, fmt.Errorf("xtc: index claims %d frames but only %d bytes remain", n, r.Remaining())
	}
	x := &Index{
		offsets: make([]int64, n),
		sizes:   make([]int64, n),
		natoms:  make([]int32, n),
	}
	if magic == indexMagicV2 {
		x.crcs = make([]uint32, n)
	}
	var prevEnd int64
	for i := uint32(0); i < n; i++ {
		x.offsets[i] = r.Int64()
		x.sizes[i] = r.Int64()
		x.natoms[i] = r.Int32()
		if magic == indexMagicV2 {
			x.crcs[i] = r.Uint32()
		}
		if x.offsets[i] != prevEnd || x.sizes[i] <= 0 || x.sizes[i] > math.MaxInt64-prevEnd || x.natoms[i] < 0 {
			return nil, fmt.Errorf("xtc: corrupt index entry %d", i)
		}
		prevEnd = x.offsets[i] + x.sizes[i]
	}
	return x, r.Err()
}
