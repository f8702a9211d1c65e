package dcd

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

// fortranRecord frames a payload with its two length markers.
func fortranRecord(payload []byte) []byte {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(payload)))
	return append(append(n[:], payload...), n[:]...)
}

// claimingHeader is a well-formed 112-byte DCD header (icntrl, an empty
// title record, an atom count) followed by the opening marker of a record
// said to be recordBytes long — and nothing else.
func claimingHeader(natoms, recordBytes uint32) []byte {
	icntrl := make([]byte, 4+20*4)
	copy(icntrl, magic[:])
	var word [4]byte
	binary.LittleEndian.PutUint32(word[:], natoms)
	p := append(fortranRecord(icntrl), fortranRecord(nil)...)
	p = append(p, fortranRecord(word[:])...)
	binary.LittleEndian.PutUint32(word[:], recordBytes)
	return append(p, word[:]...)
}

// allocated runs fn and returns the heap bytes it allocated.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// readAllBytes opens input as a DCD stream and reads it to its end.
func readAllBytes(input []byte) (frames int, err error) {
	r, err := NewReader(bytes.NewReader(input))
	if err != nil {
		return 0, err
	}
	got, err := r.ReadAll()
	return len(got), err
}

// TestReaderBoundsClaimedSizes: neither the header's atom count nor a
// record's length marker is memory until the bytes behind it arrive — a
// hundred-byte stream must not be able to ask for gigabytes.
func TestReaderBoundsClaimedSizes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		input []byte
		want  error
	}{
		{"16M-atoms-record-never-arrives", claimingHeader(1<<24, 1<<26), io.ErrUnexpectedEOF},
		{"256M-atoms-record-never-arrives", claimingHeader(1<<28, 1<<28), io.ErrUnexpectedEOF},
		{"256M-atoms-record-over-limit", claimingHeader(1<<28, 1<<30), ErrFormat},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			got := allocated(func() { _, err = readAllBytes(tc.input) })
			if !errors.Is(err, tc.want) {
				t.Errorf("err = %v, want %v", err, tc.want)
			}
			if got >= 1<<20 {
				t.Errorf("reading %d bytes allocated %d", len(tc.input), got)
			}
		})
	}
}

// FuzzDCDReader holds the reader to the rule for bytes from outside: no
// panic, and memory in proportion to the input — a decoded atom is 12 bytes
// of input and 12 of frame, a record is buffered once and may double once
// while growing, a zero-atom frame is 24 bytes of markers for a Frame
// struct, so 8 bytes per input byte plus the fixed pieces (the 64 KiB read
// buffer, one record chunk).
func FuzzDCDReader(f *testing.F) {
	var whole bytes.Buffer
	w := NewWriter(&whole, Header{NFrames: 2, HasUnitCell: true})
	for _, fr := range makeFrames(2, 30, 5) {
		if err := w.WriteFrame(fr); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	raw := whole.Bytes()
	f.Add(raw)
	f.Add(raw[:len(raw)-10]) // TestTruncatedStream
	f.Add(raw[:100])
	mismatch := append([]byte(nil), raw...)
	mismatch[len(mismatch)-1] ^= 0xff // TestRecordMarkerMismatch
	f.Add(mismatch)
	badMagic := append([]byte(nil), raw...)
	copy(badMagic[4:], "XXXX") // TestBadMagic
	f.Add(badMagic)
	f.Add(claimingHeader(1<<24, 1<<26))
	f.Add(claimingHeader(1<<28, 1<<28))
	f.Add(claimingHeader(1<<28, 1<<30))

	f.Fuzz(func(t *testing.T, input []byte) {
		got := allocated(func() { _, _ = readAllBytes(input) })
		if limit := uint64(8*len(input) + 1<<20); got > limit {
			t.Fatalf("reading %d bytes allocated %d, limit %d", len(input), got, limit)
		}
	})
}
