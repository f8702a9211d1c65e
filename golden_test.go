package ada_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/gpcr"
	"repro/internal/xdr"
	"repro/internal/xtc"
)

// TestEncodeGoldenBytes pins the compressed encoding of the deterministic
// 43.5k-atom GPCR frame to the byte stream the pre-optimization encoder
// produced. The wire-speed encode path (64-bit accumulator writer, fused
// pack/run loops, pooled scratch) is required to be a pure performance
// change: any drift in this hash means on-disk subsets stop being
// bit-compatible across versions and the fast paths diverged from the
// reference arithmetic.
func TestEncodeGoldenBytes(t *testing.T) {
	const (
		wantAtoms = 43506
		wantLen   = 176392
		wantHash  = "551c1b3c0c560ed889968eeba4e4a81342f27eacde71afa1d1ab6a77dbbdefa2"
	)
	sys, err := gpcr.Default().Build()
	if err != nil {
		t.Fatal(err)
	}
	f := sys.InitialFrame()
	if f.NAtoms() != wantAtoms {
		t.Fatalf("staged frame has %d atoms, want %d", f.NAtoms(), wantAtoms)
	}
	w := xdr.NewWriter(1 << 21)
	if err := f.AppendEncoded(w); err != nil {
		t.Fatal(err)
	}
	enc := w.Bytes()
	if len(enc) != wantLen {
		t.Errorf("encoded length = %d, want %d", len(enc), wantLen)
	}
	sum := sha256.Sum256(enc)
	if got := hex.EncodeToString(sum[:]); got != wantHash {
		t.Errorf("encoded sha256 = %s, want %s", got, wantHash)
	}
}

// TestDecodeGoldenBytes pins the decoder the way TestEncodeGoldenBytes pins
// the encoder: it decodes the same deterministic 43.5k-atom frame and hashes
// every coordinate's float bits (little-endian, atom by atom) against the
// value the two-pass decoder produced before the fused kernel. The
// end-to-end benchmark's reference decode goes through this same package,
// so only a pin from outside it catches a drift in the dequantized bits.
func TestDecodeGoldenBytes(t *testing.T) {
	const wantHash = "5c1adf774e19617e65f1d0fea6f8caf9ddf4caf71b7e8007d6c594754232faa3"
	sys, err := gpcr.Default().Build()
	if err != nil {
		t.Fatal(err)
	}
	w := xdr.NewWriter(1 << 21)
	if err := sys.InitialFrame().AppendEncoded(w); err != nil {
		t.Fatal(err)
	}
	f, err := xtc.DecodeFrame(xdr.NewReader(w.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if f.NAtoms() != 43506 {
		t.Fatalf("decoded %d atoms, want 43506", f.NAtoms())
	}
	h := sha256.New()
	var b [12]byte
	for _, c := range f.Coords {
		for d := 0; d < 3; d++ {
			binary.LittleEndian.PutUint32(b[4*d:], math.Float32bits(c[d]))
		}
		h.Write(b[:])
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != wantHash {
		t.Errorf("decoded coordinate sha256 = %s, want %s", got, wantHash)
	}
}

// TestRawSubsetGoldenBytes pins the raw bytes every subset dropping holds:
// the staged 43.5k-atom frame encoded by AppendRawSubset for the default
// coarse subsets (p and m), and by AppendRaw whole, each hashed against the
// value the per-atom encode loop produced before the word kernel replaced
// it. Stored subsets are XDR big-endian whatever the host, so a drift here
// is a format change, not a speed-up.
func TestRawSubsetGoldenBytes(t *testing.T) {
	want := map[string]string{
		core.TagProtein: "cacedf13d4a69ff4f2e218ca3cb9b95d10bc7243961e44914a059189c6cb596f",
		core.TagMisc:    "4afc7764c921f7633bace322afd28ef0015531a330a2dd7f0217589e95a4f3f3",
		"full":          "3ac63e72e1e0d229f345dbd49f9df31c635660eb41d7d566871b38b80d12b49c",
	}
	sys, err := gpcr.Default().Build()
	if err != nil {
		t.Fatal(err)
	}
	f := sys.InitialFrame()
	if f.NAtoms() != 43506 {
		t.Fatalf("staged frame has %d atoms, want 43506", f.NAtoms())
	}
	check := func(name string, enc []byte, natoms int) {
		t.Helper()
		if int64(len(enc)) != xtc.RawFrameSize(natoms) {
			t.Errorf("%s: encoded %d bytes, want %d", name, len(enc), xtc.RawFrameSize(natoms))
		}
		sum := sha256.Sum256(enc)
		if got := hex.EncodeToString(sum[:]); got != want[name] {
			t.Errorf("%s: raw sha256 = %s, want %s", name, got, want[name])
		}
	}
	tags := core.BuildLabels(sys.Structure).TagRanges(core.Coarse)
	for _, tag := range []string{core.TagProtein, core.TagMisc} {
		enc, err := f.AppendRawSubset(nil, tags[tag].Ranges())
		if err != nil {
			t.Fatal(err)
		}
		check(tag, enc, tags[tag].Count())
	}
	w := xdr.NewWriter(int(xtc.RawFrameSize(f.NAtoms())))
	f.AppendRaw(w)
	check("full", w.Bytes(), f.NAtoms())
}
