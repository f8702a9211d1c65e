package xtc

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/xdr"
)

// perFloatRawDecode is the raw arm as it was before it took the body in one
// pass: every coordinate through the error-checked r.Float32. It is the
// reference the one-pass arm is held to.
func perFloatRawDecode(p []byte) (*Frame, error) {
	r := xdr.NewReader(p)
	if magic := r.Int32(); magic != MagicRaw {
		return nil, ErrBadMagic
	}
	f := &Frame{}
	natoms := decodeHeader(r, f)
	if err := r.Err(); err != nil {
		return nil, err
	}
	if err := atomsFit(r, natoms, natoms*12); err != nil {
		return nil, err
	}
	f.Coords = make([]Vec3, natoms)
	for i := range f.Coords {
		for d := 0; d < 3; d++ {
			f.Coords[i][d] = r.Float32()
		}
	}
	return f, r.Err()
}

// awkwardBits are float32 bit patterns a conversion that went through float
// arithmetic could disturb: quiet and signalling NaNs with payloads, both
// zeros, the infinities, and denormals.
var awkwardBits = []uint32{
	0x7fc00000, 0x7fc00001, 0xffc12345, 0x7f800001, 0xff80beef, 0x7fffffff,
	0x00000000, 0x80000000, 0x7f800000, 0xff800000,
	0x00000001, 0x807fffff, 0x00400000,
}

// rawFrameBits encodes a raw frame whose header floats and coordinates are
// the given bit patterns, written as words so nothing passes through a
// float32 on the way in.
func rawFrameBits(natoms int, step int32, word func() uint32) []byte {
	w := xdr.NewWriter(headerLen + natoms*12)
	w.Int32(MagicRaw)
	w.Int32(int32(natoms))
	w.Int32(step)
	for i := 0; i < 10+natoms*3; i++ { // time, the box, then the coordinates
		w.Uint32(word())
	}
	return w.Bytes()
}

func sameBits(a, b *Frame) bool {
	if a.Step != b.Step || math.Float32bits(a.Time) != math.Float32bits(b.Time) ||
		math.Float32bits(a.Precision) != math.Float32bits(b.Precision) || len(a.Coords) != len(b.Coords) {
		return false
	}
	for d := range a.Box {
		if math.Float32bits(a.Box[d]) != math.Float32bits(b.Box[d]) {
			return false
		}
	}
	for i := range a.Coords {
		for d := 0; d < 3; d++ {
			if math.Float32bits(a.Coords[i][d]) != math.Float32bits(b.Coords[i][d]) {
				return false
			}
		}
	}
	return true
}

// TestRawDecodeMatchesPerFloatReference: over random raw frames — random
// words salted with NaN payloads, −0 and denormals — the one-pass arm and the
// per-float reference decode to the same bits, into a fresh frame and into a
// recycled one whose Coords are longer or shorter than the frame decoded.
func TestRawDecodeMatchesPerFloatReference(t *testing.T) {
	recycled := &Frame{Coords: make([]Vec3, 40)}
	check := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		word := func() uint32 {
			if rng.Intn(4) == 0 {
				return awkwardBits[rng.Intn(len(awkwardBits))]
			}
			return rng.Uint32()
		}
		p := rawFrameBits(int(n)%300, int32(seed), word)
		want, err := perFloatRawDecode(p)
		if err != nil {
			t.Errorf("reference: %v", err)
			return false
		}
		fresh, err := DecodeFrameBytes(p)
		if err != nil || !sameBits(fresh, want) {
			t.Errorf("seed %d, %d atoms: fresh decode (err %v) differs from the reference", seed, want.NAtoms(), err)
			return false
		}
		again, err := decodeBytesInto(p, recycled)
		if err != nil || again != recycled || !sameBits(again, want) {
			t.Errorf("seed %d, %d atoms: recycled decode (err %v) differs from the reference", seed, want.NAtoms(), err)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestRawDecodeShortBody: a raw frame one byte short of its atoms is a short
// buffer, refused before Coords is sized — for a fresh frame and for a
// recycled one, whose capacity is left as it was.
func TestRawDecodeShortBody(t *testing.T) {
	const natoms = 100_000
	whole := rawFrameBits(natoms, 1, func() uint32 { return 0x3f800000 })
	short := whole[:len(whole)-1]
	var err error
	if got := allocated(func() { _, err = DecodeFrameBytes(short) }); got > 64<<10 {
		t.Errorf("refusing a short %d-atom frame allocated %d bytes", natoms, got)
	}
	if !errors.Is(err, xdr.ErrShortBuffer) {
		t.Errorf("fresh: err = %v, want xdr.ErrShortBuffer", err)
	}
	into := &Frame{Coords: make([]Vec3, 3)}
	if _, err := decodeBytesInto(short, into); !errors.Is(err, xdr.ErrShortBuffer) {
		t.Errorf("recycled: err = %v, want xdr.ErrShortBuffer", err)
	}
	if cap(into.Coords) != 3 {
		t.Errorf("recycled frame's Coords resized to %d on a refused frame", cap(into.Coords))
	}
	if f, err := DecodeFrameBytes(whole); err != nil || f.NAtoms() != natoms {
		t.Errorf("the whole frame: %v", err)
	}
}

// BenchmarkRawDecode decodes one stored protein frame of the end-to-end
// benchmark's size (18 496 atoms, 222 004 bytes) into a fresh Frame, the
// allocation included: what a cold playback frame pays after its bytes arrive.
func BenchmarkRawDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	f := &Frame{Step: 1, Time: 1, Coords: makeCluster(rng, 18496, 10)}
	w := xdr.NewWriter(headerLen + f.NAtoms()*12)
	f.AppendRaw(w)
	raw := w.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeFrameBytes(raw); err != nil {
			b.Fatal(err)
		}
	}
}
