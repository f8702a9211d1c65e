package xtc

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/xdr"
)

// TestPackIntsFastMatchesBig pins the two-multiply fast path to the byte-wise
// multi-precision arithmetic it replaced: for every triplet whose combined
// width fits 64 bits, packInts and packIntsBig must emit identical bytes.
// packIntsBig is the pre-optimization encoder, so this is a semantic lock on
// the fused path.
func TestPackIntsFastMatchesBig(t *testing.T) {
	f := func(s0, s1, s2, v0, v1, v2 uint32) bool {
		sizes := []uint32{s0%0xffffff + 1, s1%0xffffff + 1, s2%0xffffff + 1}
		vals := []uint32{v0 % sizes[0], v1 % sizes[1], v2 % sizes[2]}
		nbits := sizeOfInts(sizes)
		if nbits > 64 {
			return true // fast path not eligible; other tests cover big
		}
		fast := xdr.NewBitWriter(32)
		fast.WriteBits(0b1, 1) // misalign on purpose
		packInts(fast, nbits, sizes, vals)
		big := xdr.NewBitWriter(32)
		big.WriteBits(0b1, 1)
		packIntsBig(big, nbits, sizes, vals)
		return bytes.Equal(fast.Bytes(), big.Bytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// spreadFrame builds a frame whose quantized bounding box is tuned to force a
// specific encoder layout (see TestEncodeLayoutsRoundTrip).
func spreadFrame(rng *rand.Rand, natoms int, spread float64) *Frame {
	coords := make([]Vec3, natoms)
	var center [3]float64
	for i := range coords {
		if i%4 == 0 {
			for d := 0; d < 3; d++ {
				center[d] = (rng.Float64() - 0.5) * spread
			}
		}
		for d := 0; d < 3; d++ {
			coords[i][d] = float32(center[d] + rng.NormFloat64()*0.05)
		}
	}
	return &Frame{Step: 3, Time: 0.5, Coords: coords, Precision: 1000}
}

// TestEncodeLayoutsRoundTrip drives every absolute-coding layout the encoder
// can pick, so each write path (fused <=64-bit triplet, >64-bit packIntsBig,
// and the per-dimension raw-width path for >24-bit boxes) round-trips against
// the shared decoder.
func TestEncodeLayoutsRoundTrip(t *testing.T) {
	cases := []struct {
		name   string
		spread float64 // nm; quantized span ~ spread*1000 counts
	}{
		// span ~2^13: absolute triplets fit well under 64 bits (fused path).
		{"tiny-box-fused", 8},
		// span ~2^23 per dim: sizes are under 2^24 so the triplet layout is
		// chosen, but the combined width is ~70 bits — packIntsBig absolutes.
		{"mid-box-bignum", 8000},
		// span ~2^25 per dim: beyond the 24-bit triplet limit, so each
		// dimension is written with its own raw bit width; the huge deltas
		// also push the run coder to its widest (72-bit) packIntsBig layout.
		{"huge-box-perdim", 33000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			for _, natoms := range []int{11, 64, 500} {
				f := spreadFrame(rng, natoms, tc.spread)
				got := roundTrip(t, f)
				// Beyond the quantization error, float32 storage of large
				// coordinates loses up to one ULP (~|coord| * 2^-23).
				tol := MaxError(f.Precision) + tc.spread*1.3e-7 + 1e-6
				assertClose(t, f, got, tol)
			}
		})
	}
}

// TestEncodeLayoutsRoundTripQuick fuzzes box spans across the fused and
// big-number layout boundary and requires exact quantized-value recovery,
// which is stricter than the float tolerance check: encode, decode,
// re-encode must agree byte-for-byte. (Spans are capped at 8192 nm: beyond
// ~2^22 counts, float32 coordinate storage itself loses low bits, so exact
// idempotence is no longer the codec's contract.)
func TestEncodeLayoutsRoundTripQuick(t *testing.T) {
	f := func(seed int64, n uint8, spreadPow uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		natoms := int(n)%200 + smallAtomThreshold + 1
		spread := math.Pow(2, float64(spreadPow%11)+3) // 8 .. 8192 nm
		fr := spreadFrame(rng, natoms, spread)
		w := xdr.NewWriter(1 << 16)
		if err := fr.AppendEncoded(w); err != nil {
			return false
		}
		first := append([]byte(nil), w.Bytes()...)
		got, err := DecodeFrame(xdr.NewReader(first))
		if err != nil {
			return false
		}
		w.Reset()
		if err := got.AppendEncoded(w); err != nil {
			return false
		}
		// Decoded coords quantize back to the same integers, so the second
		// encoding must reproduce the first bit stream exactly.
		return bytes.Equal(first, w.Bytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestEncodeAllocsSteadyState bounds the per-frame allocation count of the
// encode hot path: with a reused xdr.Writer, steady-state AppendEncoded must
// cost at most one allocation per frame (pool churn), matching the
// wire-speed-ingest acceptance bar.
func TestEncodeAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	rng := rand.New(rand.NewSource(7))
	f := spreadFrame(rng, 2000, 10)
	w := xdr.NewWriter(1 << 16)
	// Warm the pools.
	for i := 0; i < 4; i++ {
		w.Reset()
		if err := f.AppendEncoded(w); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(50, func() {
		w.Reset()
		if err := f.AppendEncoded(w); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 1 {
		t.Errorf("AppendEncoded steady state = %.2f allocs/frame, want <= 1", avg)
	}
}

func TestSubsetInto(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := spreadFrame(rng, 100, 10)
	idx := []int{0, 7, 42, 99, 7}

	var dst Frame
	if err := f.SubsetInto(idx, &dst); err != nil {
		t.Fatal(err)
	}
	if dst.Step != f.Step || dst.Time != f.Time || dst.Precision != f.Precision || dst.Box != f.Box {
		t.Error("SubsetInto did not copy frame metadata")
	}
	for i, a := range idx {
		if dst.Coords[i] != f.Coords[a] {
			t.Fatalf("coord %d: got %v, want %v", i, dst.Coords[i], f.Coords[a])
		}
	}

	// Shrinking reuse: a smaller subset into the same dst must reuse the
	// backing array and not allocate.
	small := idx[:2]
	avg := testing.AllocsPerRun(20, func() {
		if err := f.SubsetInto(small, &dst); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("SubsetInto reuse = %.2f allocs, want 0", avg)
	}
	if len(dst.Coords) != len(small) {
		t.Errorf("len = %d, want %d", len(dst.Coords), len(small))
	}

	// Out-of-range indices error.
	for _, bad := range [][]int{{-1}, {100}, {0, 1, 1000}} {
		if err := f.SubsetInto(bad, &dst); err == nil {
			t.Errorf("SubsetInto(%v) did not error", bad)
		}
	}

	// Subset delegates and matches.
	g, err := f.Subset(idx)
	if err != nil {
		t.Fatal(err)
	}
	var h Frame
	if err := f.SubsetInto(idx, &h); err != nil {
		t.Fatal(err)
	}
	for i := range g.Coords {
		if g.Coords[i] != h.Coords[i] {
			t.Fatalf("Subset and SubsetInto disagree at %d", i)
		}
	}
}
