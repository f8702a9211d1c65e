package xtc

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/rangelist"
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

// sameCoordBits reports whether a and b hold the same float bits.
func sameCoordBits(a, b []Vec3) bool {
	return sameBits(&Frame{Coords: a}, &Frame{Coords: b})
}

// awkwardWords returns a source of random words salted with awkwardBits.
func awkwardWords(rng *rand.Rand) func() uint32 {
	return func() uint32 {
		if rng.Intn(4) == 0 {
			return awkwardBits[rng.Intn(len(awkwardBits))]
		}
		return rng.Uint32()
	}
}

// sentinel fills every float of c with a bit pattern no frame here holds.
func sentinel(c []Vec3) {
	for i := range c {
		c[i] = Vec3{math.Float32frombits(0x7fa5a5a5), math.Float32frombits(0x7fa5a5a5), math.Float32frombits(0x7fa5a5a5)}
	}
}

// TestRawDecodeMatchesPerFloatReference: over random raw frames — random
// words salted with NaN payloads, −0 and denormals — the word kernel and the
// per-float reference decode to the same bits, into a fresh frame and into a
// recycled one whose Coords are longer or shorter than the frame decoded.
// So do the per-atom fallback, and FrameView.CoordsInto for every run of 0
// to 9 atoms starting at atoms 0 to 7 — odd word counts, a lone tail float,
// and runs that start only four-byte aligned on either side — writing
// nothing outside its run.
func TestRawDecodeMatchesPerFloatReference(t *testing.T) {
	recycled := &Frame{Coords: make([]Vec3, 40)}
	var window [18]Vec3
	check := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		p := rawFrameBits(int(n)%300, int32(seed), awkwardWords(rng))
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
		fallback := make([]Vec3, want.NAtoms())
		convertRawAtoms(fallback, p[headerLen:])
		if !sameCoordBits(fallback, want.Coords) {
			t.Errorf("seed %d, %d atoms: the per-atom fallback differs from the reference", seed, want.NAtoms())
			return false
		}
		v, err := ParseFrame(p)
		if err != nil {
			t.Errorf("ParseFrame: %v", err)
			return false
		}
		for first := 0; first < 8; first++ {
			for k := 0; k <= 9 && first+k <= want.NAtoms(); k++ {
				sentinel(window[:])
				v.CoordsInto(window[first:first+k], first)
				untouched := append(append([]Vec3(nil), window[:first]...), window[first+k:]...)
				outside := make([]Vec3, len(untouched))
				sentinel(outside)
				if !sameCoordBits(window[first:first+k], want.Coords[first:first+k]) || !sameCoordBits(untouched, outside) {
					t.Errorf("seed %d: CoordsInto of atoms %d..%d differs from the reference", seed, first, first+k)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// singletons is the run list that selects idx one atom a run, in order.
func singletons(idx ...int) []rangelist.Range {
	runs := make([]rangelist.Range, len(idx))
	for i, a := range idx {
		runs[i] = rangelist.Range{Begin: a, End: a + 1}
	}
	return runs
}

// perFloatRawSubset is the reference for AppendRawSubset: the raw frame of
// the atoms runs select, written one float at a time through an xdr.Writer.
func perFloatRawSubset(f *Frame, runs []rangelist.Range) []byte {
	w := xdr.NewWriter(headerLen)
	w.Int32(MagicRaw)
	natoms := 0
	for _, r := range runs {
		natoms += r.Len()
	}
	w.Int32(int32(natoms))
	w.Int32(f.Step)
	w.Float32(f.Time)
	for _, b := range f.Box {
		w.Float32(b)
	}
	for _, r := range runs {
		for _, c := range f.Coords[r.Begin:r.End] {
			for d := 0; d < 3; d++ {
				w.Float32(c[d])
			}
		}
	}
	return w.Bytes()
}

// randomRuns draws up to six runs over natoms atoms, in any order: whole
// runs, possibly empty, and single atoms.
func randomRuns(rng *rand.Rand, natoms int) []rangelist.Range {
	runs := make([]rangelist.Range, rng.Intn(7))
	for i := range runs {
		b := rng.Intn(natoms + 1)
		e := b + rng.Intn(natoms-b+1)
		if b < natoms && rng.Intn(2) == 0 {
			e = b + 1
		}
		runs[i] = rangelist.Range{Begin: b, End: e}
	}
	return runs
}

// TestRawEncodeMatchesPerFloatReference: over random frames whose header and
// coordinates carry NaN payloads, −0 and denormals, and random run lists,
// AppendRawSubset appends exactly the per-float reference's bytes after
// what buf held, and so do SubsetInto followed by AppendRaw and the per-atom
// fallback. A run reaching outside the frame is ErrAtomRange, with buf
// handed back unextended and unchanged.
func TestRawEncodeMatchesPerFloatReference(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		word := awkwardWords(rng)
		fl := func() float32 { return math.Float32frombits(word()) }
		f := &Frame{Step: int32(seed), Time: fl(), Coords: make([]Vec3, rng.Intn(40))}
		for d := range f.Box {
			f.Box[d] = fl()
		}
		for i := range f.Coords {
			f.Coords[i] = Vec3{fl(), fl(), fl()}
		}
		runs := randomRuns(rng, f.NAtoms())
		want := perFloatRawSubset(f, runs)
		prefix := []byte{1, 2, 3}
		got, err := f.AppendRawSubset(append([]byte(nil), prefix...), runs)
		if err != nil || !bytes.Equal(got[:3], prefix) || !bytes.Equal(got[3:], want) {
			t.Errorf("seed %d, runs %v: AppendRawSubset (err %v) differs from the reference", seed, runs, err)
			return false
		}
		var sub Frame
		w := xdr.NewWriter(0)
		if err := f.SubsetInto(runs, &sub); err != nil {
			t.Errorf("seed %d: SubsetInto: %v", seed, err)
			return false
		}
		sub.AppendRaw(w)
		fallback := append([]byte(nil), want[:headerLen]...)
		fallback = append(fallback, make([]byte, sub.NAtoms()*12)...)
		putRawAtoms(fallback[headerLen:], sub.Coords)
		if !bytes.Equal(w.Bytes(), want) || !bytes.Equal(fallback, want) {
			t.Errorf("seed %d, runs %v: AppendRaw of the subset or the per-atom fallback differs from the reference", seed, runs)
			return false
		}
		n := f.NAtoms()
		bad := []rangelist.Range{{Begin: -1, End: 1}, {Begin: n, End: n + 1}, {Begin: 1, End: 0}}[rng.Intn(3)]
		at := rng.Intn(len(runs) + 1)
		runs = append(runs[:at:at], append([]rangelist.Range{bad}, runs[at:]...)...)
		buf := append(make([]byte, 0, 4096), prefix...)
		out, err := f.AppendRawSubset(buf, runs)
		if !errors.Is(err, ErrAtomRange) || !bytes.Equal(out, prefix) || !bytes.Equal(buf[:cap(buf)][3:len(want)+3], make([]byte, len(want))) {
			t.Errorf("seed %d, runs %v: AppendRawSubset = %d bytes, err %v; want the prefix back and ErrAtomRange", seed, runs, len(out), err)
			return false
		}
		if err := f.SubsetInto(runs, &sub); !errors.Is(err, ErrAtomRange) {
			t.Errorf("seed %d, runs %v: SubsetInto err %v, want ErrAtomRange", seed, runs, err)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
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

// rawBench is one stored protein frame of the end-to-end benchmark's size
// (18 496 atoms): its coordinates and their raw bytes.
func rawBench() ([]Vec3, []byte) {
	f := &Frame{Coords: makeCluster(rand.New(rand.NewSource(11)), 18496, 10)}
	w := xdr.NewWriter(headerLen + f.NAtoms()*12)
	f.AppendRaw(w)
	return f.Coords, w.Bytes()[headerLen:]
}

// BenchmarkRawConvert converts one stored protein frame's raw bytes into a
// reused run of atoms: ref is the per-atom loop (the big-endian fallback),
// words the word kernel, measured side by side in one binary; copy moves
// the same bytes unconverted, the floor a host-order format would reach.
func BenchmarkRawConvert(b *testing.B) {
	atoms, body := rawBench()
	for _, bc := range []struct {
		name string
		fn   func([]Vec3, []byte)
	}{
		{"ref", convertRawAtoms},
		{"words", convertRaw},
		{"copy", func(dst []Vec3, body []byte) { copy(atomBytes(dst), body) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				bc.fn(atoms, body)
			}
		})
	}
}

// BenchmarkRawEncode is BenchmarkRawConvert the other way: one protein
// frame's atoms into a reused raw body.
func BenchmarkRawEncode(b *testing.B) {
	atoms, body := rawBench()
	for _, bc := range []struct {
		name string
		fn   func([]byte, []Vec3)
	}{{"ref", putRawAtoms}, {"words", putRaw}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				bc.fn(body, atoms)
			}
		})
	}
}
