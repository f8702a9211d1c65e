package xtc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/xdr"
)

// headerOnly is a 52-byte frame: a magic, an atom count, and a zeroed rest of
// the header with no payload behind it — the smallest input that names a
// size.
func headerOnly(magic int32, natoms int32) []byte {
	p := make([]byte, headerLen)
	binary.BigEndian.PutUint32(p[0:], uint32(magic))
	binary.BigEndian.PutUint32(p[4:], uint32(natoms))
	return p
}

// allocated runs fn and returns the heap bytes it allocated.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodeBoundsAtomCount: a header that claims more atoms than its bytes
// could hold is refused as a short buffer before anything is sized from the
// claim — 52 bytes must not be able to ask for gigabytes.
func TestDecodeBoundsAtomCount(t *testing.T) {
	for _, tc := range []struct {
		name  string
		input []byte
	}{
		{"compressed-16M-atoms", headerOnly(MagicCompressed, 1<<24)},
		{"compressed-max-atoms", headerOnly(MagicCompressed, math.MaxInt32)},
		{"compressed-plain-arm", headerOnly(MagicCompressed, smallAtomThreshold)},
		{"raw-16M-atoms", headerOnly(MagicRaw, 1<<24)},
		{"raw-max-atoms", headerOnly(MagicRaw, math.MaxInt32)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			got := allocated(func() { _, err = DecodeFrameBytes(tc.input) })
			if !errors.Is(err, xdr.ErrShortBuffer) {
				t.Errorf("err = %v, want xdr.ErrShortBuffer", err)
			}
			if got >= 1<<20 {
				t.Errorf("decoding %d bytes allocated %d", len(tc.input), got)
			}
		})
	}
}

// fuzzSeeds are the framing-error tables' inputs as single frames: whole
// frames of each storage form, each cut at every boundary class of
// TestTruncationTable, a clobbered magic, and the header-only size claims.
func fuzzSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(7))
	var seeds [][]byte
	for _, natoms := range []int{24, smallAtomThreshold, 0} {
		f := &Frame{Step: 3, Time: 3, Precision: 1000, Coords: makeCluster(rng, natoms, 4)}
		enc, raw := xdr.NewWriter(4096), xdr.NewWriter(4096)
		if err := f.AppendEncoded(enc); err != nil {
			tb.Fatal(err)
		}
		f.AppendRaw(raw)
		for _, whole := range [][]byte{enc.Bytes(), raw.Bytes()} {
			whole = append([]byte(nil), whole...)
			seeds = append(seeds, whole)
			for _, cut := range []int{2, headerLen - 3, headerLen + 10, len(whole) - 3} {
				if cut > 0 && cut < len(whole) {
					seeds = append(seeds, whole[:cut])
				}
			}
			bad := append([]byte(nil), whole...)
			bad[0] = 0x7f
			seeds = append(seeds, bad)
		}
	}
	for _, magic := range []int32{MagicCompressed, MagicRaw} {
		seeds = append(seeds, headerOnly(magic, 1<<24), headerOnly(magic, math.MaxInt32), headerOnly(magic, -1))
	}
	return seeds
}

// FuzzDecodeFrame holds the decoder to the rule for bytes from outside: no
// panic, an error or a frame, and memory in proportion to the input — an
// atom is at least a bit of input and at most its 12 bytes of coordinates
// decoded (the kernel keeps no per-atom scratch), so 128 bytes per input
// byte plus slack for the fixed-size pieces covers every honest frame. It is
// also differential: the fused kernel and the two-pass reference decoder
// (refdecode_test.go) must return the same coordinate bits, or both fail.
// The seeds include kernelPathFrames, so the wide-box (bitSize == 0) and
// wide-triplet (unpackWide) arms are mutated from the start. ParseFrame, the decode a
// full-frame reader converts by runs through, must agree with both, and a
// raw frame re-encoded with AppendRaw must give back its input bytes.
func FuzzDecodeFrame(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	for _, p := range kernelPathFrames(f) {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, input []byte) {
		var fr *Frame
		var err error
		got := allocated(func() { fr, err = DecodeFrameBytes(input) })
		if (fr == nil) == (err == nil) {
			t.Fatalf("frame %v, err %v: want exactly one", fr != nil, err)
		}
		if limit := uint64(128*len(input) + 1<<20); got > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(input), got, limit)
		}
		want, werr := refDecodeBytes(input)
		if err := sameDecode(fr, err, want, werr); err != nil {
			t.Fatal(err)
		}
		// ParseFrame is the same parse: it accepts what the decoder accepts,
		// and its view converts to the same bits however the atoms are split
		// into runs.
		v, verr := ParseFrame(input)
		if (verr == nil) != (err == nil) {
			t.Fatalf("ParseFrame err %v, DecodeFrameBytes err %v", verr, err)
		}
		if err == nil {
			viewed := &Frame{Step: v.Step, Time: v.Time, Box: v.Box, Precision: fr.Precision, Coords: make([]Vec3, v.NAtoms())}
			half := len(viewed.Coords) / 2
			v.CoordsInto(viewed.Coords[half:], half)
			v.CoordsInto(viewed.Coords[:half], 0)
			if err := sameDecode(viewed, nil, fr, nil); err != nil {
				t.Fatalf("ParseFrame: %v", err)
			}
			if binary.BigEndian.Uint32(input) == MagicRaw {
				w := xdr.NewWriter(len(input))
				fr.AppendRaw(w)
				if !bytes.Equal(w.Bytes(), input[:len(w.Bytes())]) {
					t.Fatalf("raw frame of %d atoms re-encodes to different bytes", fr.NAtoms())
				}
			}
		}
	})
}

// indexBlob serializes entries as a version-1 index without checking them,
// the way a rotten index dropping could read.
func indexBlob(entries ...[3]int64) []byte {
	w := xdr.NewWriter(8 + 20*len(entries))
	w.Uint32(indexMagic)
	w.Uint32(uint32(len(entries)))
	for _, e := range entries {
		w.Int64(e[0])
		w.Int64(e[1])
		w.Int32(int32(e[2]))
	}
	return w.Bytes()
}

// FuzzUnmarshalIndex holds the index parser to the rule for bytes from
// outside: no panic, memory in proportion to the input (an entry is at
// least 20 bytes of input and 24 of index), and an accepted index tiles the
// stream from offset 0 with entries of at least one byte whose ends an int64
// holds.
func FuzzUnmarshalIndex(f *testing.F) {
	var v1, v2 IndexBuilder
	for i, size := range []int64{120, 88, 300} {
		v1.Add(size, 10+i)
		v2.AddWithCRC(size, 10+i, uint32(i))
	}
	f.Add(v1.Index().Marshal())
	f.Add(v2.Index().Marshal())
	f.Add(indexBlob([3]int64{0, 1 << 62, 10}))
	f.Add(indexBlob([3]int64{0, 1 << 62, 10}, [3]int64{1 << 62, 1 << 62, 10}))
	f.Add(indexBlob([3]int64{0, math.MaxInt64, 10}))
	f.Add(indexBlob([3]int64{0, 0, 10}))
	f.Add(indexBlob()[:6])
	claim := indexBlob()
	binary.BigEndian.PutUint32(claim[4:], math.MaxUint32)
	f.Add(claim)
	f.Fuzz(func(t *testing.T, input []byte) {
		var x *Index
		var err error
		got := allocated(func() { x, err = UnmarshalIndex(input) })
		if limit := uint64(2*len(input) + 1<<20); got > limit {
			t.Fatalf("parsing %d bytes allocated %d, limit %d", len(input), got, limit)
		}
		if err != nil {
			return
		}
		var end int64
		for i := 0; i < x.Frames(); i++ {
			off, size := x.Offset(i), x.Size(i)
			if off != end || size <= 0 || size > math.MaxInt64-off {
				t.Fatalf("accepted entry %d at %d of %d bytes after an end at %d", i, off, size, end)
			}
			end = off + size
		}
		if x.TotalBytes() != end {
			t.Fatalf("TotalBytes = %d, entries end at %d", x.TotalBytes(), end)
		}
	})
}
