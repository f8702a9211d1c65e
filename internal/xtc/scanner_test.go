package xtc

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
)

// threeFrameStream encodes three compressed frames (natoms large enough to
// take the blob-coded path) and returns the stream plus each frame's offset
// and length.
func threeFrameStream(t *testing.T, natoms int) (stream []byte, offsets, lengths []int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	coords := make([]Vec3, natoms)
	for i := range coords {
		coords[i] = Vec3{rng.Float32() * 4, rng.Float32() * 4, rng.Float32() * 4}
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for k := 0; k < 3; k++ {
		f := &Frame{Step: int32(k), Time: float32(k), Precision: 1000, Coords: coords}
		for i := range coords {
			for d := 0; d < 3; d++ {
				coords[i][d] += rng.Float32() * 0.01
			}
		}
		before := buf.Len()
		if err := w.WriteFrame(f); err != nil {
			t.Fatal(err)
		}
		offsets = append(offsets, int64(before))
		lengths = append(lengths, int64(buf.Len()-before))
	}
	return buf.Bytes(), offsets, lengths
}

// readAllVia exhausts the stream through one of the three frame readers and
// returns the frames read plus the terminal error (nil for clean EOF).
func readAllVia(t *testing.T, kind string, stream []byte) ([]*Frame, error) {
	t.Helper()
	switch kind {
	case "reader":
		return NewReader(bytes.NewReader(stream)).ReadAll()
	case "scanner":
		sc := NewScanner(bytes.NewReader(stream))
		var frames []*Frame
		for {
			blob, err := sc.Next()
			if err == io.EOF {
				return frames, nil
			}
			if err != nil {
				return frames, err
			}
			f, err := decodeBytes(blob)
			if err != nil {
				return frames, err
			}
			frames = append(frames, f)
		}
	case "parallel":
		pr := NewAheadReader(bytes.NewReader(stream))
		defer pr.Close()
		return pr.ReadAll()
	case "parallel-frame-batch":
		// The lookahead at its floor: the decoder waits on the consumer, and
		// the error queues behind at most two frames.
		pr := NewAheadReader(bytes.NewReader(stream))
		pr.aheadBytes = 1
		defer pr.Close()
		return pr.ReadAll()
	case "parallel-whole-batch":
		// The lookahead at its cap: the whole stream is decoded ahead, and
		// the error rides behind every intact frame in the channel.
		pr := NewAheadReader(bytes.NewReader(stream))
		pr.aheadBytes = 1 << 40
		defer pr.Close()
		return pr.ReadAll()
	}
	t.Fatalf("unknown reader kind %q", kind)
	return nil, nil
}

// readerKinds are the frame-reader variants every framing-error table runs
// over; the lookahead extremes pin where the decode-ahead channel places
// the error.
var readerKinds = []string{"reader", "scanner", "parallel", "parallel-frame-batch", "parallel-whole-batch"}

// TestTruncationTable cuts a 3-frame stream at every interesting byte
// boundary class of every frame and checks all three readers agree: frames
// before the cut decode, the cut itself surfaces as ErrUnexpectedEOF (or a
// clean EOF exactly at a frame boundary).
func TestTruncationTable(t *testing.T) {
	stream, offsets, lengths := threeFrameStream(t, 24)
	classes := []struct {
		name string
		cut  func(frame int) int64 // absolute cut position within the stream
	}{
		{"at-boundary", func(f int) int64 { return offsets[f] }},
		{"mid-magic", func(f int) int64 { return offsets[f] + 2 }},
		{"mid-header", func(f int) int64 { return offsets[f] + headerLen - 3 }},
		{"mid-coord-metadata", func(f int) int64 { return offsets[f] + headerLen + 10 }},
		{"mid-blob", func(f int) int64 { return offsets[f] + lengths[f] - 3 }},
	}
	for _, kind := range readerKinds {
		for frame := 0; frame < 3; frame++ {
			for _, cl := range classes {
				cut := cl.cut(frame)
				t.Run(kind+"/"+cl.name+"/frame-"+string(rune('0'+frame)), func(t *testing.T) {
					frames, err := readAllVia(t, kind, stream[:cut])
					if cl.name == "at-boundary" {
						if err != nil {
							t.Fatalf("clean boundary cut errored: %v", err)
						}
						if len(frames) != frame {
							t.Fatalf("got %d frames, want %d", len(frames), frame)
						}
						return
					}
					if err != io.ErrUnexpectedEOF {
						t.Fatalf("want ErrUnexpectedEOF, got %v (%d frames)", err, len(frames))
					}
					if len(frames) != frame {
						t.Fatalf("decoded %d whole frames before the tear, want %d", len(frames), frame)
					}
				})
			}
		}
	}
	// The untouched stream reads fully everywhere.
	for _, kind := range readerKinds {
		frames, err := readAllVia(t, kind, stream)
		if err != nil || len(frames) != 3 {
			t.Fatalf("%s over whole stream: %d frames, %v", kind, len(frames), err)
		}
	}
}

// TestBadMagicAtEveryFramePosition corrupts the magic of each frame in turn;
// every reader must decode the preceding frames and then report ErrBadMagic.
func TestBadMagicAtEveryFramePosition(t *testing.T) {
	stream, offsets, _ := threeFrameStream(t, 24)
	for _, kind := range readerKinds {
		for frame := 0; frame < 3; frame++ {
			corrupt := append([]byte(nil), stream...)
			corrupt[offsets[frame]] = 0x7f // clobber the magic's high byte
			frames, err := readAllVia(t, kind, corrupt)
			if !errors.Is(err, ErrBadMagic) {
				t.Errorf("%s frame %d: want ErrBadMagic, got %v", kind, frame, err)
			}
			if len(frames) != frame {
				t.Errorf("%s frame %d: decoded %d frames before bad magic", kind, frame, len(frames))
			}
		}
	}
}

// TestScannerAppendNext: the zero-copy accumulation API concatenates frames
// into one caller-owned buffer byte-identically to the stream, and an error
// leaves every previously appended frame intact in the buffer.
func TestScannerAppendNext(t *testing.T) {
	stream, offsets, lengths := threeFrameStream(t, 24)
	sc := NewScanner(bytes.NewReader(stream))
	buf := make([]byte, 0, 8)
	var ends []int
	for {
		grown, err := sc.appendNext(buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		buf = grown
		ends = append(ends, len(buf))
	}
	if !bytes.Equal(buf, stream) {
		t.Fatalf("accumulated %d bytes != %d-byte stream", len(buf), len(stream))
	}
	for k := range ends {
		if want := offsets[k] + lengths[k]; int64(ends[k]) != want {
			t.Errorf("frame %d ends at %d, want %d", k, ends[k], want)
		}
	}

	// A truncated final frame must not leak partial bytes into the buffer.
	cut := stream[:offsets[2]+5]
	sc = NewScanner(bytes.NewReader(cut))
	buf = buf[:0]
	for i := 0; i < 2; i++ {
		var err error
		if buf, err = sc.appendNext(buf); err != nil {
			t.Fatal(err)
		}
	}
	grown, err := sc.appendNext(buf)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("torn frame: got %v", err)
	}
	if len(grown) != len(buf) || !bytes.Equal(grown, stream[:offsets[2]]) {
		t.Fatalf("torn frame left %d bytes, want the %d intact-frame bytes", len(grown), offsets[2])
	}
}

// TestScannerBlobsRoundTrip: every scanned blob decodes to the same frame
// the streaming Reader produces, and the scanner's frame/atom bookkeeping
// matches.
func TestScannerBlobsRoundTrip(t *testing.T) {
	stream, _, lengths := threeFrameStream(t, 24)
	want, err := NewReader(bytes.NewReader(stream)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScanner(bytes.NewReader(stream))
	for k := 0; ; k++ {
		blob, err := sc.Next()
		if err == io.EOF {
			if k != len(want) {
				t.Fatalf("scanner saw %d frames, reader %d", k, len(want))
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(blob)) != lengths[k] {
			t.Errorf("frame %d blob %d bytes, writer emitted %d", k, len(blob), lengths[k])
		}
		if sc.NAtoms() != want[k].NAtoms() {
			t.Errorf("frame %d scanner natoms %d, want %d", k, sc.NAtoms(), want[k].NAtoms())
		}
		if sc.Frames() != k+1 {
			t.Errorf("after frame %d scanner count %d", k, sc.Frames())
		}
		f, err := decodeBytes(blob)
		if err != nil {
			t.Fatal(err)
		}
		if f.Step != want[k].Step || len(f.Coords) != len(want[k].Coords) {
			t.Fatalf("frame %d decode mismatch", k)
		}
		for i := range f.Coords {
			if f.Coords[i] != want[k].Coords[i] {
				t.Fatalf("frame %d atom %d: %v != %v", k, i, f.Coords[i], want[k].Coords[i])
			}
		}
	}
}
