package trr

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"testing"
)

// claimingHeader is the 80-byte header of a frame with natoms atoms and
// an x block of natoms*12 bytes (as an int32, wrapping as a producer's
// would), with no box, velocities or forces — and nothing behind it.
func claimingHeader(natoms int32) []byte {
	p := make([]byte, fixedHeaderLen)
	binary.BigEndian.PutUint32(p[0:], Magic)
	binary.BigEndian.PutUint32(p[4:], uint32(len(versionTag)))
	copy(p[8:], versionTag)
	binary.BigEndian.PutUint32(p[20+7*4:], uint32(natoms*12)) // x_size
	binary.BigEndian.PutUint32(p[20+10*4:], uint32(natoms))
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

// TestReaderBoundsClaimedSizes: a header's atom count is not memory until
// the coordinates behind it arrive — 80 bytes must not be able to ask for
// gigabytes — and a count whose block size wraps an int32 is refused.
func TestReaderBoundsClaimedSizes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		natoms int32
		want   error
	}{
		{"128M-atoms-block-never-arrives", 1 << 27, io.ErrUnexpectedEOF},
		{"block-size-wraps-int32", 178956971, ErrFormat},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			got := allocated(func() { _, err = NewReader(bytes.NewReader(claimingHeader(tc.natoms))).ReadAll() })
			if !errors.Is(err, tc.want) {
				t.Errorf("err = %v, want %v", err, tc.want)
			}
			if got >= 1<<20 {
				t.Errorf("reading an 80-byte header allocated %d", got)
			}
		})
	}
}

// FuzzTRRReader holds the reader to the rule for bytes from outside: no
// panic, and memory in proportion to the input — a decoded atom is 12 bytes
// of input and 12 of frame, a block is buffered once and may double once
// while growing, so 8 bytes per input byte plus the fixed pieces (the 64 KiB
// read buffer, one block chunk).
func FuzzTRRReader(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	var whole bytes.Buffer
	w := NewWriter(&whole)
	for i, v := range []struct{ withV, withF bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
		if err := w.WriteFrame(makeFrame(rng, 10+i, v.withV, v.withF)); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	raw := whole.Bytes()
	f.Add(raw)
	f.Add(raw[:len(raw)-8]) // TestTruncated
	f.Add(raw[:fixedHeaderLen])
	badMagic := append([]byte(nil), raw...)
	badMagic[3] = 99 // TestBadMagicAndTag
	f.Add(badMagic)
	f.Add(claimingHeader(1 << 27))
	f.Add(claimingHeader(178956971))
	f.Fuzz(func(t *testing.T, input []byte) {
		got := allocated(func() { _, _ = NewReader(bytes.NewReader(input)).ReadAll() })
		if limit := uint64(8*len(input) + 1<<20); got > limit {
			t.Fatalf("reading %d bytes allocated %d, limit %d", len(input), got, limit)
		}
	})
}
