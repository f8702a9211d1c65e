package xtc

import (
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
// atom is at least a bit of input and at most 24 bytes decoded (12 of
// coordinates, 12 of quantized scratch), so 256 bytes per input byte plus
// slack for the fixed-size pieces covers every honest frame.
func FuzzDecodeFrame(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input []byte) {
		var fr *Frame
		var err error
		got := allocated(func() { fr, err = DecodeFrameBytes(input) })
		if (fr == nil) == (err == nil) {
			t.Fatalf("frame %v, err %v: want exactly one", fr != nil, err)
		}
		if limit := uint64(256*len(input) + 1<<20); got > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(input), got, limit)
		}
	})
}
