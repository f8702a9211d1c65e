package xtc

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/xdr"
)

func TestSizeOfInt(t *testing.T) {
	cases := []struct {
		size uint32
		want uint
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3},
		{255, 8}, {256, 8}, {257, 9}, {1 << 24, 24}, {1<<24 + 1, 25},
	}
	for _, c := range cases {
		if got := sizeOfInt(c.size); got != c.want {
			t.Errorf("sizeOfInt(%d) = %d, want %d", c.size, got, c.want)
		}
	}
}

func TestSizeOfInts(t *testing.T) {
	// Product of sizes needs ceil(log2(product)) bits.
	cases := [][3]uint32{
		{8, 8, 8}, {10, 10, 10}, {255, 3, 7}, {1 << 20, 1 << 20, 1 << 20},
		{1, 1, 1}, {16777216, 16777216, 16777216},
	}
	for _, sizes := range cases {
		got := sizeOfInts(sizes[:])
		product := float64(sizes[0]) * float64(sizes[1]) * float64(sizes[2])
		want := uint(math.Ceil(math.Log2(product)))
		if product == 1 {
			want = 0
		}
		// sizeOfInts may be at most 1 bit looser than the information bound
		// (it rounds within its top byte), never tighter.
		if got < want || got > want+1 {
			t.Errorf("sizeOfInts(%v) = %d, want ~%d", sizes, got, want)
		}
	}
}

func TestPackUnpackInts(t *testing.T) {
	sizes := []uint32{1000, 2000, 3000}
	nbits := sizeOfInts(sizes)
	w := xdr.NewBitWriter(64)
	vals := [][]uint32{
		{0, 0, 0}, {999, 1999, 2999}, {1, 2, 3}, {500, 1000, 1500},
	}
	for _, v := range vals {
		packInts(w, nbits, sizes, v)
	}
	r := &refBitReader{buf: w.Bytes()}
	for _, v := range vals {
		var got [3]uint32
		unpackInts(r, nbits, sizes, got[:])
		for d := 0; d < 3; d++ {
			if got[d] != v[d] {
				t.Fatalf("unpack %v = %v", v, got)
			}
		}
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
}

func TestPackUnpackIntsQuick(t *testing.T) {
	f := func(s0, s1, s2 uint32, v0, v1, v2 uint32) bool {
		sizes := []uint32{s0%0xffffff + 1, s1%0xffffff + 1, s2%0xffffff + 1}
		vals := []uint32{v0 % sizes[0], v1 % sizes[1], v2 % sizes[2]}
		nbits := sizeOfInts(sizes)
		w := xdr.NewBitWriter(32)
		packInts(w, nbits, sizes, vals)
		r := &refBitReader{buf: w.Bytes()}
		var got [3]uint32
		unpackInts(r, nbits, sizes, got[:])
		if got != [3]uint32(vals) || r.Err() != nil {
			return false
		}
		if nbits <= xdr.MaxLoadBits {
			return true
		}
		// The kernel's wide split, behind a misaligned prefix and over a
		// buffer with the 8 bytes of slack its loads need.
		w.Reset()
		w.WriteBits(0b101, 3)
		packInts(w, nbits, sizes, vals)
		buf := append(w.Bytes(), make([]byte, 8)...)
		return unpackWide(buf, 3, nbits, sizes[1], sizes[2]) == [3]uint32(vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// makeCluster builds a water-box-like set of coordinates: clusters of a few
// atoms around slowly varying centers, which is what the delta coder is
// designed for.
func makeCluster(rng *rand.Rand, natoms int, spread float64) []Vec3 {
	coords := make([]Vec3, natoms)
	var center [3]float64
	for i := range coords {
		if i%3 == 0 {
			for d := 0; d < 3; d++ {
				center[d] = rng.Float64() * spread
			}
		}
		for d := 0; d < 3; d++ {
			coords[i][d] = float32(center[d] + rng.NormFloat64()*0.05)
		}
	}
	return coords
}

func roundTrip(t *testing.T, f *Frame) *Frame {
	t.Helper()
	w := xdr.NewWriter(1024)
	if err := f.AppendEncoded(w); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeFrame(xdr.NewReader(w.Bytes()))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return got
}

func assertClose(t *testing.T, want, got *Frame, tol float64) {
	t.Helper()
	if got.NAtoms() != want.NAtoms() {
		t.Fatalf("natoms = %d, want %d", got.NAtoms(), want.NAtoms())
	}
	if got.Step != want.Step || got.Time != want.Time {
		t.Fatalf("step/time = %d/%g, want %d/%g", got.Step, got.Time, want.Step, want.Time)
	}
	for i := range want.Coords {
		for d := 0; d < 3; d++ {
			diff := math.Abs(float64(got.Coords[i][d]) - float64(want.Coords[i][d]))
			if diff > tol {
				t.Fatalf("atom %d dim %d: got %g want %g (diff %g > tol %g)",
					i, d, got.Coords[i][d], want.Coords[i][d], diff, tol)
			}
		}
	}
}

func TestFrameRoundTripClustered(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, natoms := range []int{10, 50, 333, 2048} {
		f := &Frame{
			Step:      7,
			Time:      12.5,
			Coords:    makeCluster(rng, natoms, 10),
			Precision: 1000,
		}
		got := roundTrip(t, f)
		assertClose(t, f, got, MaxError(1000)+1e-6)
	}
}

func TestFrameRoundTripUniformRandom(t *testing.T) {
	// Worst case for the delta coder: no spatial correlation at all.
	rng := rand.New(rand.NewSource(2))
	coords := make([]Vec3, 500)
	for i := range coords {
		for d := 0; d < 3; d++ {
			coords[i][d] = float32(rng.Float64()*200 - 100)
		}
	}
	f := &Frame{Coords: coords, Precision: 1000}
	got := roundTrip(t, f)
	assertClose(t, f, got, MaxError(1000)+1e-4)
}

func TestFrameRoundTripQuick(t *testing.T) {
	f := func(seed int64, n uint16, precPow uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		natoms := int(n)%300 + 1
		prec := float32(math.Pow(10, float64(precPow%4+1))) // 10..10000
		fr := &Frame{Coords: makeCluster(rng, natoms, 5), Precision: prec}
		w := xdr.NewWriter(1024)
		if err := fr.AppendEncoded(w); err != nil {
			return false
		}
		got, err := DecodeFrame(xdr.NewReader(w.Bytes()))
		if err != nil {
			return false
		}
		tol := MaxError(prec) + 1e-6
		for i := range fr.Coords {
			for d := 0; d < 3; d++ {
				if math.Abs(float64(got.Coords[i][d])-float64(fr.Coords[i][d])) > tol {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTinyFrames(t *testing.T) {
	for natoms := 0; natoms <= smallAtomThreshold; natoms++ {
		coords := make([]Vec3, natoms)
		for i := range coords {
			coords[i] = Vec3{float32(i), float32(-i), 0.5}
		}
		f := &Frame{Coords: coords, Precision: 1000}
		got := roundTrip(t, f)
		// Tiny frames are stored as exact floats.
		for i := range coords {
			if got.Coords[i] != coords[i] {
				t.Fatalf("natoms=%d atom %d: %v != %v", natoms, i, got.Coords[i], coords[i])
			}
		}
	}
}

func TestRawRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := &Frame{Step: 3, Time: 1.5, Coords: makeCluster(rng, 100, 5)}
	w := xdr.NewWriter(2048)
	f.AppendRaw(w)
	got, err := DecodeFrame(xdr.NewReader(w.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.Coords {
		if got.Coords[i] != f.Coords[i] {
			t.Fatalf("atom %d: %v != %v", i, got.Coords[i], f.Coords[i])
		}
	}
}

func TestCompressionBeatsRawOnCorrelatedData(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := &Frame{Coords: makeCluster(rng, 3000, 8), Precision: 1000}
	cw := xdr.NewWriter(1 << 16)
	if err := f.AppendEncoded(cw); err != nil {
		t.Fatal(err)
	}
	rw := xdr.NewWriter(1 << 16)
	f.AppendRaw(rw)
	ratio := CompressionRatio(int64(rw.Len()), int64(cw.Len()))
	if ratio < 2 {
		t.Errorf("compression ratio = %.2f, want >= 2 on clustered data", ratio)
	}
	t.Logf("compressed %d bytes, raw %d bytes, ratio %.2fx", cw.Len(), rw.Len(), ratio)
}

func TestPrecisionOverflow(t *testing.T) {
	f := &Frame{
		Coords:    make([]Vec3, 20),
		Precision: 1e9,
	}
	for i := range f.Coords {
		f.Coords[i] = Vec3{1e6, 0, 0}
	}
	w := xdr.NewWriter(1024)
	err := f.AppendEncoded(w)
	if !errors.Is(err, ErrPrecision) {
		t.Errorf("err = %v, want ErrPrecision", err)
	}
}

func TestStreamWriterReader(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var buf bytes.Buffer
	w := NewWriter(&buf)
	var want []*Frame
	for i := 0; i < 17; i++ {
		f := &Frame{
			Step:      int32(i * 100),
			Time:      float32(i) * 2,
			Coords:    makeCluster(rng, 120, 6),
			Precision: 1000,
		}
		want = append(want, f)
		if err := w.WriteFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	if w.Frames() != 17 {
		t.Errorf("Frames = %d", w.Frames())
	}
	if w.BytesWritten() != int64(buf.Len()) {
		t.Errorf("BytesWritten = %d, buf = %d", w.BytesWritten(), buf.Len())
	}

	r := NewReader(bytes.NewReader(buf.Bytes()))
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("frames = %d, want %d", len(got), len(want))
	}
	for i := range want {
		assertClose(t, want[i], got[i], MaxError(1000)+1e-6)
	}
}

func TestStreamMixedCompressedRaw(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var buf bytes.Buffer
	cw := NewWriter(&buf)
	rw := NewRawWriter(&buf)
	f1 := &Frame{Step: 1, Coords: makeCluster(rng, 64, 4), Precision: 1000}
	f2 := &Frame{Step: 2, Coords: makeCluster(rng, 64, 4)}
	if err := cw.WriteFrame(f1); err != nil {
		t.Fatal(err)
	}
	if err := rw.WriteFrame(f2); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	g1, err := r.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	g2, err := r.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if g1.Step != 1 || g2.Step != 2 {
		t.Errorf("steps = %d, %d", g1.Step, g2.Step)
	}
	if _, err := r.ReadFrame(); err != io.EOF {
		t.Errorf("want io.EOF, got %v", err)
	}
}

func TestStreamTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var buf bytes.Buffer
	w := NewWriter(&buf)
	f := &Frame{Coords: makeCluster(rng, 128, 4), Precision: 1000}
	if err := w.WriteFrame(f); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	r := NewReader(bytes.NewReader(trunc))
	_, err := r.ReadFrame()
	if err != io.ErrUnexpectedEOF {
		t.Errorf("want ErrUnexpectedEOF, got %v", err)
	}
}

func TestStreamBadMagic(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte{0, 0, 0, 99, 0, 0, 0, 0}))
	_, err := r.ReadFrame()
	if !errors.Is(err, ErrBadMagic) {
		t.Errorf("want ErrBadMagic, got %v", err)
	}
}

func TestSubset(t *testing.T) {
	f := &Frame{Coords: []Vec3{{0, 0, 0}, {1, 1, 1}, {2, 2, 2}, {3, 3, 3}}}
	g, err := f.Subset(singletons(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	if g.NAtoms() != 2 || g.Coords[0] != (Vec3{1, 1, 1}) || g.Coords[1] != (Vec3{3, 3, 3}) {
		t.Errorf("subset = %v", g.Coords)
	}
	if _, err := f.Subset(singletons(4)); err == nil {
		t.Error("out-of-range subset index should fail")
	}
	if _, err := f.Subset(singletons(-1)); err == nil {
		t.Error("negative subset index should fail")
	}
}

func TestClone(t *testing.T) {
	f := &Frame{Step: 9, Coords: []Vec3{{1, 2, 3}}}
	g := f.Clone()
	g.Coords[0][0] = 99
	if f.Coords[0][0] != 1 {
		t.Error("Clone shares coordinate storage")
	}
}

func TestDecodeCorruptRunField(t *testing.T) {
	// Craft a compressed frame and corrupt the blob so the run claims more
	// atoms than remain.
	rng := rand.New(rand.NewSource(8))
	f := &Frame{Coords: makeCluster(rng, 40, 4), Precision: 1000}
	w := xdr.NewWriter(4096)
	if err := f.AppendEncoded(w); err != nil {
		t.Fatal(err)
	}
	raw := w.Bytes()
	// Flip bits across the tail of the blob; decoding must fail or return
	// a frame (never panic or loop).
	for i := len(raw) - 8; i < len(raw); i++ {
		mut := make([]byte, len(raw))
		copy(mut, raw)
		mut[i] ^= 0xff
		_, _ = DecodeFrame(xdr.NewReader(mut))
	}
}

func BenchmarkEncodeFrame(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	f := &Frame{Coords: makeCluster(rng, 10000, 10), Precision: 1000}
	w := xdr.NewWriter(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Reset()
		if err := f.AppendEncoded(w); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(f.NAtoms() * 12))
}

func BenchmarkDecodeFrame(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	f := &Frame{Coords: makeCluster(rng, 10000, 10), Precision: 1000}
	w := xdr.NewWriter(1 << 20)
	if err := f.AppendEncoded(w); err != nil {
		b.Fatal(err)
	}
	raw := w.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeFrame(xdr.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(f.NAtoms() * 12))
}
