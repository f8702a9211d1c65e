package stream

import (
	"bytes"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/gpcr"
	"repro/internal/mdsim"
	"repro/internal/metrics"
	"repro/internal/pdb"
	"repro/internal/plfs"
	"repro/internal/vfs"
	"repro/internal/xtc"
)

// testDataset builds a small synthetic dataset: pdb bytes plus a compressed
// trajectory with the given frame count.
func testDataset(t testing.TB, scale, frames int) (pdbBytes, traj []byte) {
	t.Helper()
	sys, err := gpcr.Scaled(scale).Build()
	if err != nil {
		t.Fatal(err)
	}
	var pb bytes.Buffer
	if err := pdb.Write(&pb, sys.Structure); err != nil {
		t.Fatal(err)
	}
	cats := make([]pdb.Category, sys.Structure.NAtoms())
	for i := range cats {
		cats[i] = sys.Structure.Atoms[i].Category
	}
	s, err := mdsim.New(sys.Coords, cats, sys.Box, mdsim.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var tb bytes.Buffer
	if err := s.WriteTrajectory(xtc.NewWriter(&tb), frames); err != nil {
		t.Fatal(err)
	}
	return pb.Bytes(), tb.Bytes()
}

// splitFrames cuts an encoded trajectory at frame boundaries.
func splitFrames(t testing.TB, traj []byte) [][]byte {
	t.Helper()
	idx, err := xtc.BuildIndex(bytes.NewReader(traj), int64(len(traj)))
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, idx.Frames())
	for i := 0; i < idx.Frames(); i++ {
		out[i] = traj[idx.Offset(i) : idx.Offset(i)+idx.Size(i)]
	}
	return out
}

func batchFrames(frames [][]byte, n int) [][]byte {
	var out [][]byte
	for len(frames) > 0 {
		k := n
		if k > len(frames) {
			k = len(frames)
		}
		var b []byte
		for _, f := range frames[:k] {
			b = append(b, f...)
		}
		out = append(out, b)
		frames = frames[k:]
	}
	return out
}

func newStore(t testing.TB, ssd, hdd vfs.FS) *plfs.FS {
	t.Helper()
	store, err := plfs.New(
		plfs.Backend{Name: "ssd", FS: ssd, Mount: "/mnt1"},
		plfs.Backend{Name: "hdd", FS: hdd, Mount: "/mnt2"},
	)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// readSealed decodes every frame of the sealed subset straight from the
// container bytes — the ground truth tailing readers are compared against.
func readSealed(t *testing.T, a *core.ADA, logical, tag string) []*xtc.Frame {
	t.Helper()
	src, err := a.OpenSubsetAt(logical, tag)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	frames := make([]*xtc.Frame, src.Frames())
	for i := range frames {
		f, err := src.ReadFrameAt(i)
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = f
	}
	return frames
}

func frameEqual(a, b *xtc.Frame) bool {
	if a.NAtoms() != b.NAtoms() {
		return false
	}
	for i := range a.Coords {
		if a.Coords[i] != b.Coords[i] {
			return false
		}
	}
	return a.Box == b.Box && a.Step == b.Step && a.Time == b.Time
}

// tailAll tails the protein subset from frame 0 until EOF, recording every
// observed frame. Errors are reported on errc.
func tailAll(src *Source, out *[]*xtc.Frame, mu *sync.Mutex, errc chan<- error, wg *sync.WaitGroup) {
	defer wg.Done()
	for i := 0; ; i++ {
		f, err := src.ReadFrameAt(i)
		if err == io.EOF {
			return
		}
		if err != nil {
			errc <- err
			return
		}
		mu.Lock()
		*out = append(*out, f)
		mu.Unlock()
	}
}

// TestTailSeesEveryPrefix is the headline streaming test: a producer
// appends batch after batch while concurrent tailing readers follow the head; every frame any reader observes must be
// byte-identical to the same frame of the final sealed container. The kill
// subtest crashes the producer's file system mid-append, reboots, recovers,
// resumes, and seals — readers tail across the crash.
func TestTailSeesEveryPrefix(t *testing.T) {
	const frames = 48
	pdbBytes, traj := testDataset(t, 200, frames)
	batches := batchFrames(splitFrames(t, traj), 5)

	run := func(t *testing.T, kill bool) {
		ssd, hdd := vfs.NewMemFS(), vfs.NewMemFS()

		// Readers view the same storage through their own unfaulted stack,
		// like a remote node: the producer process dying must not take the
		// tail down with it.
		readerADA := core.New(newStore(t, ssd, hdd), nil, core.Options{Metrics: metrics.NewRegistry()})

		producerFS := [2]vfs.FS{ssd, hdd}
		if kill {
			// Probe the op count of a full clean session on scratch storage,
			// then kill the real one roughly 60% of the way through — far
			// enough in that frames have been published, well short of seal.
			probe := faultfs.MustNew(1, faultfs.Rule{Kind: faultfs.KindErr, Op: "no-such-op", Nth: 1})
			pa := core.New(newStore(t, faultfs.Wrap(vfs.NewMemFS(), probe), faultfs.Wrap(vfs.NewMemFS(), probe)),
				nil, core.Options{Metrics: metrics.NewRegistry()})
			pli, err := pa.OpenLiveIngest("/ds", pdbBytes)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range batches {
				if _, err := pli.Append(b); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := pli.Seal(); err != nil {
				t.Fatal(err)
			}
			in := faultfs.MustNew(7, faultfs.Rule{Kind: faultfs.KindKill, Nth: int(probe.Ops() * 3 / 5)})
			producerFS[0] = faultfs.Wrap(ssd, in)
			producerFS[1] = faultfs.Wrap(hdd, in)
		}
		producerADA := core.New(newStore(t, producerFS[0], producerFS[1]), nil,
			core.Options{Metrics: metrics.NewRegistry()})

		li, err := producerADA.OpenLiveIngest("/ds", pdbBytes)
		if err != nil {
			t.Fatal(err)
		}
		reg := metrics.NewRegistry()

		// Two concurrent tails, started before any frame exists.
		var mu sync.Mutex
		var seen [2][]*xtc.Frame
		errc := make(chan error, 4)
		var wg sync.WaitGroup
		var tails [2]*Source
		for r := 0; r < 2; r++ {
			src, err := Open(readerADA, "/ds", core.TagProtein, Options{Staleness: time.Millisecond, Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			tails[r] = src
			wg.Add(1)
			go tailAll(src, &seen[r], &mu, errc, &wg)
		}

		for _, b := range batches {
			if _, err = li.Append(b); err != nil {
				break // the kill; handled below
			}
		}
		var rep *core.IngestReport
		if err == nil {
			rep, err = li.Seal()
		}
		if kill {
			if err == nil {
				t.Fatal("kill run: session sealed cleanly; kill never fired")
			}
			// The producer crashed. Reboot on the surviving storage, recover,
			// resume the live session, and run it to seal.
			reboot := core.New(newStore(t, ssd, hdd), nil, core.Options{Metrics: metrics.NewRegistry()})
			acts, err := reboot.Recover()
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			if acts["/ds"] != core.RecoveryLive {
				t.Fatalf("recovery action = %v, want live", acts["/ds"])
			}
			li2, err := reboot.ResumeLiveIngest("/ds", pdbBytes)
			if err != nil {
				t.Fatal(err)
			}
			perFrame := splitFrames(t, traj)
			for _, f := range perFrame[li2.Frames():] {
				if _, err := li2.Append(f); err != nil {
					t.Fatal(err)
				}
			}
			if rep, err = li2.Seal(); err != nil {
				t.Fatal(err)
			}
		} else if err != nil {
			t.Fatal(err)
		}
		if rep.Frames != frames {
			t.Fatalf("sealed %d frames, want %d", rep.Frames, frames)
		}

		wg.Wait()
		close(errc)
		for err := range errc {
			t.Fatalf("tail: %v", err)
		}
		for r := range tails {
			if err := tails[r].Close(); err != nil {
				t.Fatal(err)
			}
		}

		want := readSealed(t, readerADA, "/ds", core.TagProtein)
		if len(want) != frames {
			t.Fatalf("sealed subset has %d frames", len(want))
		}
		for r := range seen {
			if len(seen[r]) != frames {
				t.Fatalf("reader %d observed %d frames, want %d", r, len(seen[r]), frames)
			}
			for i, f := range seen[r] {
				if !frameEqual(f, want[i]) {
					t.Fatalf("reader %d frame %d differs from sealed container", r, i)
				}
			}
		}
		if li.Head().Version == 0 {
			t.Error("no head published")
		}
		if reg.Histogram("stream.tail.lag_frames").Count() == 0 {
			t.Error("no tail lag observations recorded")
		}
	}

	t.Run("clean", func(t *testing.T) { run(t, false) })
	t.Run("kill", func(t *testing.T) { run(t, true) })
}

// TestStalenessBound checks the documented staleness contract: after a
// publish, a tailing reader's Frames() reflects the new head within the
// configured staleness bound (plus scheduling slack).
func TestStalenessBound(t *testing.T) {
	pdbBytes, traj := testDataset(t, 200, 8)
	ssd, hdd := vfs.NewMemFS(), vfs.NewMemFS()
	a := core.New(newStore(t, ssd, hdd), nil, core.Options{Metrics: metrics.NewRegistry()})
	li, err := a.OpenLiveIngest("/ds", pdbBytes)
	if err != nil {
		t.Fatal(err)
	}
	const bound = 5 * time.Millisecond
	src, err := Open(a, "/ds", core.TagProtein, Options{Staleness: bound})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	perFrame := splitFrames(t, traj)
	for i, f := range perFrame {
		if _, err := li.Append(f); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(bound + 250*time.Millisecond)
		for src.Frames() < i+1 {
			if time.Now().After(deadline) {
				t.Fatalf("frame %d not visible %v after publish (staleness bound %v)", i, time.Since(deadline.Add(-bound-250*time.Millisecond)), bound)
			}
			time.Sleep(time.Millisecond)
		}
	}
	if _, err := li.Seal(); err != nil {
		t.Fatal(err)
	}
	// After the seal the source flips to the immutable container.
	deadline := time.Now().Add(time.Second)
	for src.Live() {
		if time.Now().After(deadline) {
			t.Fatal("source still live after seal")
		}
		time.Sleep(time.Millisecond)
	}
}
