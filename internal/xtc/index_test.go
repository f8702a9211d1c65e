package xtc

import (
	"bytes"
	"errors"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// buildTrajectory returns an encoded stream plus the original frames.
func buildTrajectory(t *testing.T, frames int, compressed bool) ([]byte, []*Frame) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if !compressed {
		w = NewRawWriter(&buf)
	}
	var orig []*Frame
	for i := 0; i < frames; i++ {
		f := &Frame{
			Step:      int32(i),
			Time:      float32(i) * 2,
			Coords:    makeCluster(rng, 80+i, 5), // varying atom counts
			Precision: 1000,
		}
		orig = append(orig, f)
		if err := w.WriteFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes(), orig
}

func TestBuildIndexCompressed(t *testing.T) {
	raw, orig := buildTrajectory(t, 9, true)
	idx, err := BuildIndex(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if idx.Frames() != 9 {
		t.Fatalf("Frames = %d", idx.Frames())
	}
	if idx.TotalBytes() != int64(len(raw)) {
		t.Errorf("TotalBytes = %d, want %d", idx.TotalBytes(), len(raw))
	}
	for i := range orig {
		if idx.NAtoms(i) != orig[i].NAtoms() {
			t.Errorf("frame %d natoms = %d, want %d", i, idx.NAtoms(i), orig[i].NAtoms())
		}
	}
	// Offsets strictly increase and sizes are positive.
	for i := 1; i < idx.Frames(); i++ {
		if idx.Offset(i) != idx.Offset(i-1)+idx.Size(i-1) {
			t.Errorf("frame %d offset %d not contiguous", i, idx.Offset(i))
		}
	}
}

func TestRandomAccessReader(t *testing.T) {
	for _, compressed := range []bool{true, false} {
		raw, orig := buildTrajectory(t, 7, compressed)
		idx, err := BuildIndex(bytes.NewReader(raw), int64(len(raw)))
		if err != nil {
			t.Fatal(err)
		}
		ra := NewRandomAccessReader(bytes.NewReader(raw), idx)
		// Access out of order, repeatedly.
		order := []int{3, 0, 6, 3, 1, 5, 2, 4, 6}
		for _, i := range order {
			f, err := ra.ReadFrameAt(i)
			if err != nil {
				t.Fatalf("compressed=%v frame %d: %v", compressed, i, err)
			}
			if f.Step != orig[i].Step || f.NAtoms() != orig[i].NAtoms() {
				t.Fatalf("compressed=%v frame %d: step=%d natoms=%d", compressed, i, f.Step, f.NAtoms())
			}
		}
		if _, err := ra.ReadFrameAt(-1); err == nil {
			t.Error("negative frame should fail")
		}
		if _, err := ra.ReadFrameAt(7); err == nil {
			t.Error("past-end frame should fail")
		}
	}
}

func TestBuildIndexErrors(t *testing.T) {
	raw, _ := buildTrajectory(t, 3, true)
	// Truncated stream.
	if _, err := BuildIndex(bytes.NewReader(raw[:len(raw)-4]), int64(len(raw)-4)); err == nil {
		t.Error("truncated stream should fail")
	}
	// Bad magic.
	bad := append([]byte{9, 9, 9, 9}, raw...)
	if _, err := BuildIndex(bytes.NewReader(bad), int64(len(bad))); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: %v", err)
	}
	// Empty stream indexes cleanly.
	idx, err := BuildIndex(bytes.NewReader(nil), 0)
	if err != nil || idx.Frames() != 0 || idx.TotalBytes() != 0 {
		t.Errorf("empty: %v, %d frames", err, idx.Frames())
	}
}

func TestIndexAgreesWithSequentialReader(t *testing.T) {
	raw, _ := buildTrajectory(t, 12, true)
	idx, err := BuildIndex(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	seq, err := NewReader(bytes.NewReader(raw)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	ra := NewRandomAccessReader(bytes.NewReader(raw), idx)
	if ra.Frames() != len(seq) {
		t.Fatalf("frames = %d vs %d", ra.Frames(), len(seq))
	}
	for i := range seq {
		f, err := ra.ReadFrameAt(i)
		if err != nil {
			t.Fatal(err)
		}
		for a := range f.Coords {
			if f.Coords[a] != seq[i].Coords[a] {
				t.Fatalf("frame %d atom %d differs between access paths", i, a)
			}
		}
	}
}

// TestFrameOK checks the one verdict on stored bytes: right length always,
// right CRC32C when the index carries checksums.
func TestFrameOK(t *testing.T) {
	raw, _ := buildTrajectory(t, 3, false)
	plain, err := BuildIndex(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	summed, err := BuildIndexChecksummed(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	frame := func(i int) []byte {
		return append([]byte(nil), raw[plain.Offset(i):plain.Offset(i)+plain.Size(i)]...)
	}
	for i := 0; i < 3; i++ {
		if !plain.FrameOK(i, frame(i)) || !summed.FrameOK(i, frame(i)) {
			t.Fatalf("frame %d: clean bytes rejected", i)
		}
	}
	flipped := frame(1)
	flipped[len(flipped)/2] ^= 1
	if summed.FrameOK(1, flipped) {
		t.Error("checksummed index accepted a flipped bit")
	}
	if !plain.FrameOK(1, flipped) {
		t.Error("an index without checksums has nothing to reject a flipped bit with")
	}
	if short := frame(1); plain.FrameOK(1, short[:len(short)-1]) || summed.FrameOK(1, short[:len(short)-1]) {
		t.Error("short bytes accepted")
	}
}

// TestIndexReadFrame: fill is handed scratch of exactly the frame's size at
// the frame's offset, its error comes back untouched, and out-of-range
// frames never reach it.
func TestIndexReadFrame(t *testing.T) {
	raw, orig := buildTrajectory(t, 4, false)
	idx, err := BuildIndex(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range orig {
		f, err := idx.ReadFrame(i, &Frame{}, func(p []byte, off int64) error {
			if int64(len(p)) != idx.Size(i) || off != idx.Offset(i) {
				t.Fatalf("frame %d: fill got %d bytes at %d, index says %d at %d", i, len(p), off, idx.Size(i), idx.Offset(i))
			}
			copy(p, raw[off:])
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if f.Step != orig[i].Step || f.NAtoms() != orig[i].NAtoms() {
			t.Fatalf("frame %d decoded as step %d, %d atoms", i, f.Step, f.NAtoms())
		}
	}
	boom := errors.New("boom")
	if _, err := idx.ReadFrame(0, &Frame{}, func([]byte, int64) error { return boom }); err != boom {
		t.Errorf("fill error came back as %v", err)
	}
	for _, i := range []int{-1, 4} {
		if _, err := idx.ReadFrame(i, &Frame{}, func([]byte, int64) error { t.Fatal("fill called"); return nil }); err == nil {
			t.Errorf("frame %d: no range error", i)
		}
	}
}

// TestOneFrameCRCComparison is a source-level guard in the style of core's
// TestCostModelBehindOneHook: stored bytes are compared with an index's
// per-frame CRC32C in Index.FrameOK and nowhere else, so no reader, fsck or
// scrubber under internal/ or cmd/ can grow its own, subtly different, check.
// Reading a stored CRC at all is allowed in one more place, which copies
// index entries into a resumed ingest's new index and checks nothing.
func TestOneFrameCRCComparison(t *testing.T) {
	reads := regexp.MustCompile(`\.CRC\(`)
	allowed := map[string]string{
		"../../internal/xtc/index.go":    "CRC32C(p) == x.CRC(i)",
		"../../internal/core/durable.go": "sw.indexFrame(idx.Size(i), idx.NAtoms(i), idx.CRC(i))",
	}
	found := map[string]int{}
	files := 0
	for _, root := range []string{"../../internal", "../../cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			files++
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			path = filepath.ToSlash(path)
			for i, line := range strings.Split(string(src), "\n") {
				if !reads.MatchString(line) {
					continue
				}
				if want, ok := allowed[path]; !ok || !strings.Contains(line, want) {
					t.Errorf("%s:%d reads an index's per-frame CRC; bytes are checked by Index.FrameOK only", path, i+1)
				}
				found[path]++
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if files < 50 {
		t.Fatalf("guard looked at only %d source files; is it running in internal/xtc?", files)
	}
	for path := range allowed {
		if found[path] != 1 {
			t.Errorf("%s reads an index's per-frame CRC %d times, want once", path, found[path])
		}
	}
}
