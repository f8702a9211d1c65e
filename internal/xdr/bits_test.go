package xdr

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitWriterSingleBits(t *testing.T) {
	w := NewBitWriter(4)
	// 1010 1100 -> 0xAC
	for _, b := range []uint32{1, 0, 1, 0, 1, 1, 0, 0} {
		w.WriteBits(b, 1)
	}
	got := w.Bytes()
	if len(got) != 1 || got[0] != 0xAC {
		t.Errorf("bytes = %v, want [0xAC]", got)
	}
}

func TestBitWriterPartialFlush(t *testing.T) {
	w := NewBitWriter(4)
	w.WriteBits(0b101, 3)
	got := w.Bytes()
	// 101 padded to 1010_0000
	if len(got) != 1 || got[0] != 0xA0 {
		t.Errorf("bytes = %v, want [0xA0]", got)
	}
}

func TestBitRoundTripFixed(t *testing.T) {
	widths := []uint{1, 3, 5, 7, 8, 9, 13, 16, 21, 24, 31, 32}
	vals := []uint32{0, 1, 2, 0x55, 0xff, 0x1234, 0xdeadbeef, 1 << 31}
	w := NewBitWriter(64)
	for _, wd := range widths {
		for _, v := range vals {
			w.WriteBits(v, wd)
		}
	}
	r := NewBitReader(w.Bytes())
	for _, wd := range widths {
		for _, v := range vals {
			want := v
			if wd < 32 {
				want &= (1 << wd) - 1
			}
			if got := r.ReadBits(wd); got != want {
				t.Fatalf("width %d value %#x: got %#x, want %#x", wd, v, got, want)
			}
		}
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
}

func TestBitRoundTripQuick(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n)%64 + 1
		widths := make([]uint, count)
		vals := make([]uint32, count)
		w := NewBitWriter(256)
		for i := range widths {
			widths[i] = uint(rng.Intn(32) + 1)
			vals[i] = rng.Uint32() & ((1 << widths[i]) - 1)
			if widths[i] == 32 {
				vals[i] = rng.Uint32()
			}
			w.WriteBits(vals[i], widths[i])
		}
		r := NewBitReader(w.Bytes())
		for i := range widths {
			if r.ReadBits(widths[i]) != vals[i] {
				return false
			}
		}
		return r.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBitsBigRoundTrip(t *testing.T) {
	// A 52-bit value spread over 7 bytes (big-endian, left-trimmed).
	src := []byte{0x0a, 0xbc, 0xde, 0xf1, 0x23, 0x45, 0x67}
	const nbits = 52
	w := NewBitWriter(16)
	w.WriteBits(0b11, 2) // misalign on purpose
	w.WriteBitsBig(src, nbits)
	r := NewBitReader(w.Bytes())
	if got := r.ReadBits(2); got != 0b11 {
		t.Fatalf("prefix = %b", got)
	}
	dst := make([]byte, len(src))
	r.ReadBitsBig(dst, nbits)
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("byte %d = %#x, want %#x (dst=%x)", i, dst[i], src[i], dst)
		}
	}
}

func TestReadBits64RoundTrip(t *testing.T) {
	// Wide values written as two halves must read back as one ReadBits64.
	vals := []uint64{0, 1, 0xdeadbeefcafe, 1<<52 - 3, 1<<63 + 12345, ^uint64(0)}
	widths := []uint{33, 40, 52, 57, 63, 64}
	w := NewBitWriter(128)
	w.WriteBits(0b101, 3) // misalign on purpose
	for i, v := range vals {
		wd := widths[i]
		w.WriteBits(uint32(v>>32), wd-32)
		w.WriteBits(uint32(v), 32)
	}
	r := NewBitReader(w.Bytes())
	if got := r.ReadBits(3); got != 0b101 {
		t.Fatalf("prefix = %b", got)
	}
	for i, v := range vals {
		wd := widths[i]
		want := v
		if wd < 64 {
			want &= 1<<wd - 1
		}
		if got := r.ReadBits64(wd); got != want {
			t.Fatalf("width %d: got %#x, want %#x", wd, got, want)
		}
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
}

func TestReadBits64MixedWidthsQuick(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n)%64 + 1
		widths := make([]uint, count)
		vals := make([]uint64, count)
		w := NewBitWriter(1024)
		for i := range widths {
			widths[i] = uint(rng.Intn(64) + 1)
			vals[i] = rng.Uint64() & (1<<widths[i] - 1)
			if widths[i] > 32 {
				w.WriteBits(uint32(vals[i]>>32), widths[i]-32)
				w.WriteBits(uint32(vals[i]), 32)
			} else {
				w.WriteBits(uint32(vals[i]), widths[i])
			}
		}
		r := NewBitReader(w.Bytes())
		for i := range widths {
			// Alternate the two read paths over identical bit positions.
			if widths[i] <= 32 && i%2 == 0 {
				if uint64(r.ReadBits(widths[i])) != vals[i] {
					return false
				}
			} else if r.ReadBits64(widths[i]) != vals[i] {
				return false
			}
		}
		return r.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestReadBits64Underflow(t *testing.T) {
	r := NewBitReader([]byte{0xaa, 0xbb, 0xcc})
	if got := r.ReadBits64(24); got != 0xaabbcc {
		t.Fatalf("got %#x", got)
	}
	_ = r.ReadBits64(1)
	if !errors.Is(r.Err(), ErrShortBuffer) {
		t.Errorf("err = %v, want ErrShortBuffer", r.Err())
	}
	// Sticky: further reads keep failing and return zero.
	if got := r.ReadBits64(8); got != 0 || !errors.Is(r.Err(), ErrShortBuffer) {
		t.Errorf("post-error read = %#x, err = %v", got, r.Err())
	}
}

func TestWriteBits64RoundTrip(t *testing.T) {
	vals := []uint64{0, 1, 0xdeadbeefcafe, 1<<52 - 3, 1<<63 + 12345, ^uint64(0)}
	widths := []uint{33, 40, 52, 57, 63, 64}
	w := NewBitWriter(128)
	w.WriteBits64(0b101, 3) // misalign on purpose
	for i, v := range vals {
		w.WriteBits64(v, widths[i])
	}
	r := NewBitReader(w.Bytes())
	if got := r.ReadBits64(3); got != 0b101 {
		t.Fatalf("prefix = %b", got)
	}
	for i, v := range vals {
		want := v & mask64(widths[i])
		if got := r.ReadBits64(widths[i]); got != want {
			t.Fatalf("width %d: got %#x, want %#x", widths[i], got, want)
		}
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
}

// TestWriteBits64MatchesSplitWrites pins the bulk writer to the legacy
// byte-at-a-time encoding: one WriteBits64 must produce the same stream as
// the same value written as two 32-bit halves.
func TestWriteBits64MatchesSplitWrites(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n)%64 + 1
		bulk := NewBitWriter(1024)
		split := NewBitWriter(1024)
		for i := 0; i < count; i++ {
			width := uint(rng.Intn(64) + 1)
			v := rng.Uint64() & mask64(width)
			bulk.WriteBits64(v, width)
			if width > 32 {
				split.WriteBits(uint32(v>>32), width-32)
				split.WriteBits(uint32(v), 32)
			} else {
				split.WriteBits(uint32(v), width)
			}
		}
		a, b := bulk.Bytes(), split.Bytes()
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteBits64WidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("WriteBits64(65) did not panic")
		}
	}()
	NewBitWriter(8).WriteBits64(0, 65)
}

func TestBitWriterReset(t *testing.T) {
	w := NewBitWriter(8)
	w.WriteBits64(0xabcdef, 24)
	first := append([]byte(nil), w.Bytes()...)
	w.Reset()
	if w.BitLen() != 0 {
		t.Fatalf("BitLen after Reset = %d", w.BitLen())
	}
	w.WriteBits64(0xabcdef, 24)
	second := w.Bytes()
	if len(first) != len(second) {
		t.Fatalf("lengths differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("byte %d differs after Reset: %#x vs %#x", i, first[i], second[i])
		}
	}
}

func TestBitReaderUnderflow(t *testing.T) {
	r := NewBitReader([]byte{0xff})
	_ = r.ReadBits(8)
	_ = r.ReadBits(1)
	if !errors.Is(r.Err(), ErrShortBuffer) {
		t.Errorf("err = %v, want ErrShortBuffer", r.Err())
	}
}

func TestBitLen(t *testing.T) {
	w := NewBitWriter(8)
	w.WriteBits(1, 5)
	if w.BitLen() != 5 {
		t.Errorf("BitLen = %d, want 5", w.BitLen())
	}
	w.WriteBits(0, 11)
	if w.BitLen() != 16 {
		t.Errorf("BitLen = %d, want 16", w.BitLen())
	}
}

// refBits reads the nbits bits of p at bit offset pos one bit at a time,
// bits past the end reading as zero; ok reports whether p holds them all.
func refBits(p []byte, pos, nbits uint) (v uint64, ok bool) {
	for k := pos; k < pos+nbits; k++ {
		v <<= 1
		if k/8 < uint(len(p)) {
			v |= uint64(p[k/8]>>(7-k%8)) & 1
		}
	}
	return v, pos+nbits <= uint(len(p))*8
}

// TestBitsMatchByteReference holds the positional reader to the bit-at-a-
// time reference at every offset of random buffers of 0 to 19 bytes (every
// start bit 0–7, at every byte, past the end too) and every width 0–64:
// bitsAt gives the reference's zero-padded value, LoadBits the same wherever
// it applies, and a BitReader that skipped to the offset gives the value
// while the bits are there — reads that end on the last bit included — and
// from one bit past, a typed xdr.ErrShortBuffer and 0 on every read.
func TestBitsMatchByteReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 0; n < 20; n++ {
		p := make([]byte, n)
		rng.Read(p)
		for pos := uint(0); pos <= uint(n)*8+9; pos++ {
			for nbits := uint(0); nbits <= 64; nbits++ {
				want, ok := refBits(p, pos, nbits)
				if got := bitsAt(p, pos, nbits); got != want {
					t.Fatalf("%d bytes: bitsAt(%d, %d) = %#x, want %#x", n, pos, nbits, got, want)
				}
				if nbits <= MaxLoadBits && pos/8+8 <= uint(n) {
					if got := LoadBits(p, pos, nbits); got != want {
						t.Fatalf("%d bytes: LoadBits(%d, %d) = %#x, want %#x", n, pos, nbits, got, want)
					}
				}
				r := NewBitReader(p)
				for skip := pos; skip > 0; skip -= min(skip, 64) {
					r.ReadBits64(min(skip, 64))
				}
				skipped := r.Err() == nil
				got := r.ReadBits64(nbits)
				switch {
				case skipped && ok:
					if got != want || r.Err() != nil {
						t.Fatalf("%d bytes: read %d at %d = %#x, %v; want %#x", n, nbits, pos, got, r.Err(), want)
					}
				case got != 0 || !errors.Is(r.Err(), ErrShortBuffer):
					t.Fatalf("%d bytes: read %d at %d past the end = %#x, %v; want 0, ErrShortBuffer", n, nbits, pos, got, r.Err())
				}
				if !ok {
					if again := r.ReadBits64(min(nbits, 1)); again != 0 || !errors.Is(r.Err(), ErrShortBuffer) {
						t.Fatalf("%d bytes: read after a failed one = %#x, %v", n, again, r.Err())
					}
				}
			}
		}
	}
}

// FuzzBitReader reads arbitrary widths from arbitrary bytes: every read of
// a BitReader, and bitsAt at the same offset, agree with the bit-at-a-time
// reference; the first read past the end, and every one after it, gives 0
// and a typed xdr.ErrShortBuffer; nothing panics. ReadBitsBig takes the
// widths over 64.
func FuzzBitReader(f *testing.F) {
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef}, []byte{3, 64, 5, 0, 57, 58})
	f.Add([]byte{0xff, 0x01, 0x80, 0x7f, 0x55, 0xaa, 0x12, 0x34, 0x56}, []byte{1, 7, 64, 8, 1})
	f.Add(make([]byte, 17), []byte{63, 63, 9, 72})
	f.Fuzz(func(t *testing.T, data, widths []byte) {
		r := NewBitReader(data)
		pos, failed := uint(0), false
		for _, w := range widths {
			nbits := uint(w) % 97
			want, ok := refBits(data, pos, nbits)
			if nbits <= 64 {
				if got := bitsAt(data, pos, nbits); got != want {
					t.Fatalf("bitsAt(%d, %d) = %#x, want %#x", pos, nbits, got, want)
				}
			}
			var got uint64
			if nbits > 64 {
				dst := make([]byte, (nbits+7)/8)
				r.ReadBitsBig(dst, nbits)
				hi, _ := refBits(data, pos, nbits-64)
				lo, _ := refBits(data, pos+nbits-64, 64)
				var wantBig [16]byte
				binary.BigEndian.PutUint64(wantBig[:], hi)
				binary.BigEndian.PutUint64(wantBig[8:], lo)
				if !failed && ok && !bytes.Equal(dst, wantBig[16-len(dst):]) {
					t.Fatalf("ReadBitsBig(%d) at %d = %x, want %x", nbits, pos, dst, wantBig[16-len(dst):])
				}
			} else {
				got = r.ReadBits64(nbits)
			}
			failed = failed || !ok
			switch {
			case failed:
				if got != 0 || !errors.Is(r.Err(), ErrShortBuffer) {
					t.Fatalf("read %d at %d past the end = %#x, %v", nbits, pos, got, r.Err())
				}
			case got != want && nbits <= 64, r.Err() != nil:
				t.Fatalf("read %d at %d = %#x, %v; want %#x", nbits, pos, got, r.Err(), want)
			}
			pos += nbits
		}
	})
}
