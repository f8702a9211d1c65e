package core

import (
	"bytes"
	"io"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/xtc"
)

// TestReadOpsMatchParent pins what a read costs the backends, through
// vfs.Instrument: opening a reader, reading ten frames and closing it is 21
// ops — the container-index lookups and whole-dropping reads of the
// manifest (or live head) and the frame index, the payload open, and one
// ReadAt of exactly one frame per frame — for the sequential, the
// random-access and the tailing reader alike. The numbers are the ones
// measured at the commit before the three readers moved onto one fetch
// (abb6d95), where each took its own path to them.
func TestReadOpsMatchParent(t *testing.T) {
	const frames, parentOps = 10, 21
	pdbBytes, traj, _ := testDataset(t, 200, frames)
	reg := metrics.NewRegistry()
	a := newMeteredADA(t, reg)
	if _, err := a.Ingest("/ds", pdbBytes, bytes.NewReader(traj)); err != nil {
		t.Fatal(err)
	}
	li, err := a.OpenLiveIngest("/live", pdbBytes)
	if err != nil {
		t.Fatal(err)
	}
	defer li.Abort()
	if _, err := li.Append(traj); err != nil {
		t.Fatal(err)
	}

	for how, read := range map[string]func() int{
		"OpenSubset": func() int {
			return len(readSubsetFrames(t, a, "/ds", TagProtein))
		},
		"OpenSubsetAt": func() int {
			rr, err := a.OpenSubsetAt("/ds", TagProtein)
			if err != nil {
				t.Fatal(err)
			}
			defer rr.Close()
			return len(readFramesAt(t, rr.ReadFrameAt, rr.Frames()))
		},
		"OpenLiveReader": func() int {
			lr, err := a.OpenLiveReader("/live", TagProtein, time.Hour)
			if err != nil {
				t.Fatal(err)
			}
			defer lr.Close()
			return len(readFramesAt(t, lr.ReadFrameAt, frames))
		},
	} {
		before := backendOps(reg)
		if n := read(); n != frames {
			t.Fatalf("%s read %d frames", how, n)
		}
		if got := backendOps(reg) - before; got != parentOps {
			t.Errorf("%s + %d frames + Close issued %d backend ops, the parent commit %d", how, frames, got, parentOps)
		}
	}
}

// readFramesAt reads frames [0,n) by number.
func readFramesAt(t *testing.T, readAt func(int) (*xtc.Frame, error), n int) []*xtc.Frame {
	t.Helper()
	out := make([]*xtc.Frame, n)
	for i := range out {
		f, err := readAt(i)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		out[i] = f
	}
	return out
}

// TestReadFrameAtAllocs pins the allocations of one verified random-access
// frame read on MemFS to the parent commit's four (abb6d95: the frame's
// bytes, the frame, its coordinates, the heat signal's dropping name). The
// fetch borrows the bytes from xtc's scratch pool and names the dropping once
// at open; what it allocates instead is the check it hands down and the
// pool's slice header.
func TestReadFrameAtAllocs(t *testing.T) {
	const frames, parentAllocs = 4, 4
	pdbBytes, traj, _ := testDataset(t, 200, frames)
	a, _, _ := newADA(t, nil, Options{Metrics: metrics.NewRegistry()})
	if _, err := a.Ingest("/ds", pdbBytes, bytes.NewReader(traj)); err != nil {
		t.Fatal(err)
	}
	rr, err := a.OpenSubsetAt("/ds", TagProtein)
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Close()
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := rr.ReadFrameAt(i % frames); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > parentAllocs {
		t.Errorf("ReadFrameAt allocates %v times a frame, the parent commit %d", allocs, parentAllocs)
	}
}

// TestFullReaderAllocatesOneFrame pins what reassembling a full frame costs
// in memory: the frame handed out, and nothing else of a frame's size. Each
// subset's frame decodes into scratch the reader keeps, where it used to
// arrive as a fresh frame dropped right after the scatter — the dataset's
// atoms allocated twice a ReadFrame. The frames handed out stay the caller's:
// a later ReadFrame must not reach back into an earlier one.
func TestFullReaderAllocatesOneFrame(t *testing.T) {
	const frames = 9
	pdbBytes, traj, _ := testDataset(t, 100, frames)
	a, _, _ := newADA(t, nil, Options{Metrics: metrics.NewRegistry()})
	if _, err := a.Ingest("/ds", pdbBytes, bytes.NewReader(traj)); err != nil {
		t.Fatal(err)
	}
	fr, err := a.OpenFull("/ds")
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	first, err := fr.ReadFrame() // sizes the scratch
	if err != nil {
		t.Fatal(err)
	}
	kept := first.Clone()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i < frames; i++ {
		if _, err := fr.ReadFrame(); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	runtime.ReadMemStats(&after)
	frameBytes := uint64(12 * fr.NAtoms)
	if per := (after.TotalAlloc - before.TotalAlloc) / (frames - 1); per > frameBytes*3/2 && !raceEnabled {
		t.Errorf("FullReader.ReadFrame allocates %d bytes a frame, the frame itself is %d", per, frameBytes)
	}
	if !reflect.DeepEqual(first, kept) {
		t.Error("a later ReadFrame changed a frame already handed out")
	}
	if _, err := fr.ReadFrame(); err != io.EOF {
		t.Errorf("past the last frame: %v, want io.EOF", err)
	}
}

// TestReadersAgreeBitwise reads one dataset through the sequential reader,
// the random-access reader and a tailing reader opened after the seal, with
// checksums and without: one fetch, so bitwise-equal frames — all verified in
// the first case, none in the second.
func TestReadersAgreeBitwise(t *testing.T) {
	const frames = 7
	pdbBytes, traj, _ := testDataset(t, 200, frames)
	for _, tc := range []struct {
		name     string
		opts     Options
		verified int64 // frames checked per reader
	}{
		{"checksums", Options{}, frames},
		{"DisableChecksums", Options{DisableChecksums: true}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			tc.opts.Metrics = reg
			a, _, _ := newADA(t, nil, tc.opts)
			li, err := a.OpenLiveIngest("/ds", pdbBytes)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := li.Append(traj); err != nil {
				t.Fatal(err)
			}
			if _, err := li.Seal(); err != nil {
				t.Fatal(err)
			}
			for _, tag := range []string{TagProtein, TagMisc} {
				seq := readSubsetFrames(t, a, "/ds", tag)
				if len(seq) != frames {
					t.Fatalf("subset %s: sequential reader returned %d frames", tag, len(seq))
				}
				rr, err := a.OpenSubsetAt("/ds", tag)
				if err != nil {
					t.Fatal(err)
				}
				if got := readFramesAt(t, rr.ReadFrameAt, rr.Frames()); !sameFrames(got, seq) {
					t.Errorf("subset %s: random-access frames differ from sequential ones", tag)
				}
				rr.Close()
				lr, err := a.OpenLiveReader("/ds", tag, 0)
				if err != nil {
					t.Fatal(err)
				}
				if got := readFramesAt(t, lr.ReadFrameAt, lr.Frames()); !sameFrames(got, seq) {
					t.Errorf("subset %s: sealed tailing reader's frames differ from sequential ones", tag)
				}
				if _, err := lr.ReadFrameAt(frames); err != io.EOF {
					t.Errorf("subset %s: sealed tailing reader past the end = %v, want io.EOF", tag, err)
				}
				lr.Close()
			}
			if got, want := reg.Snapshot().Counters["core.verify.frames"], 2*3*tc.verified; got != want {
				t.Errorf("core.verify.frames = %d over three readers of two subsets, want %d", got, want)
			}
		})
	}
}
