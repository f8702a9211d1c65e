package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/metrics"
	"repro/internal/plfs"
	"repro/internal/vfs"
	"repro/internal/xtc"
)

// splitFrames cuts an encoded trajectory at its frame boundaries.
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

// batchFrames regroups per-frame slices into batches of n frames.
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

// TestLiveSealMatchesIngest drives a live session batch by batch and
// requires Seal's output to be byte-identical to a one-shot Ingest of the
// same stream — every dropping, the manifest included.
func TestLiveSealMatchesIngest(t *testing.T) {
	const frames = journalCkptEvery + 11 // exercise both ckpt paths
	pdbBytes, traj, _ := testDataset(t, 200, frames)

	golden, goldenBytes := goldenDroppings(t, pdbBytes, traj)

	a, _, _ := newADA(t, nil, Options{Metrics: metrics.NewRegistry()})
	li, err := a.OpenLiveIngest("/ds", pdbBytes)
	if err != nil {
		t.Fatal(err)
	}

	h, err := a.LiveHead("/ds")
	if err != nil {
		t.Fatal(err)
	}
	if h.Sealed || h.Frames != 0 || h.Version != 1 {
		t.Fatalf("initial head = %+v", h)
	}

	var lastVersion int64
	total := 0
	for _, batch := range batchFrames(splitFrames(t, traj), 7) {
		n, err := li.Append(batch)
		if err != nil {
			t.Fatal(err)
		}
		total += n
		h, err := a.LiveHead("/ds")
		if err != nil {
			t.Fatal(err)
		}
		if h.Frames != total {
			t.Fatalf("head frames = %d after %d appended", h.Frames, total)
		}
		if h.Version <= lastVersion {
			t.Fatalf("head version did not advance: %d -> %d", lastVersion, h.Version)
		}
		lastVersion = h.Version
		// The published live index must cover the head for every tag.
		for _, tag := range h.Tags() {
			idxBytes, err := a.readDropping("/ds", liveIndexPrefix+tag)
			if err != nil {
				t.Fatalf("live index %s: %v", tag, err)
			}
			idx, err := xtc.UnmarshalIndex(idxBytes)
			if err != nil {
				t.Fatal(err)
			}
			if idx.Frames() < h.Frames {
				t.Fatalf("live index %s has %d frames, head %d", tag, idx.Frames(), h.Frames)
			}
		}
	}
	if total != frames {
		t.Fatalf("appended %d frames, want %d", total, frames)
	}

	// Appending to or sealing a sealed session must fail.
	rep, err := li.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Frames != frames {
		t.Fatalf("seal report frames = %d", rep.Frames)
	}
	if _, err := li.Append(nil); err == nil {
		t.Error("append after seal succeeded")
	}
	if _, err := li.Seal(); err == nil {
		t.Error("double seal succeeded")
	}

	// The sealed container is indistinguishable from the one-shot ingest.
	assertGolden(t, a, goldenBytes, "sealed dataset")
	gIdx, err := golden.containers.Index("/ds")
	if err != nil {
		t.Fatal(err)
	}
	sIdx, err := a.containers.Index("/ds")
	if err != nil {
		t.Fatal(err)
	}
	if len(gIdx) != len(sIdx) {
		t.Fatalf("container holds %d droppings, one-shot %d: %v vs %v", len(sIdx), len(gIdx), sIdx, gIdx)
	}
	for i := range gIdx {
		if gIdx[i].Name != sIdx[i].Name || gIdx[i].Backend != sIdx[i].Backend {
			t.Errorf("dropping %d: %v vs %v", i, sIdx[i], gIdx[i])
		}
	}

	// The head now reports the sealed manifest.
	h, err = a.LiveHead("/ds")
	if err != nil {
		t.Fatal(err)
	}
	if !h.Sealed || h.Frames != frames {
		t.Fatalf("post-seal head = %+v", h)
	}
}

// TestLiveAbort removes the whole container.
func TestLiveAbort(t *testing.T) {
	pdbBytes, traj, _ := testDataset(t, 200, 4)
	a, _, _ := newADA(t, nil, Options{Metrics: metrics.NewRegistry()})
	li, err := a.OpenLiveIngest("/ds", pdbBytes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := li.Append(traj); err != nil {
		t.Fatal(err)
	}
	if err := li.Abort(); err != nil {
		t.Fatal(err)
	}
	names, err := a.Datasets()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 0 {
		t.Fatalf("containers remain after abort: %v", names)
	}
	if _, err := a.LiveHead("/ds"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("head after abort = %v, want ErrNotExist", err)
	}
}

// TestLiveReaderTails drives a producer and two concurrent tailers sharing
// one reader: every frame they observe must be byte-identical to the same frame
// of the final sealed container, ReadFrameAt past the head must block until
// the frame is published, and the seal must surface as io.EOF.
func TestLiveReaderTails(t *testing.T) {
	const frames = 24
	pdbBytes, traj, _ := testDataset(t, 200, frames)
	a, _, _ := newADA(t, nil, Options{Metrics: metrics.NewRegistry()})
	li, err := a.OpenLiveIngest("/ds", pdbBytes)
	if err != nil {
		t.Fatal(err)
	}

	lr, err := a.OpenLiveReader("/ds", TagProtein, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer lr.Close()
	if !lr.Live() {
		t.Fatal("fresh live dataset reports not live")
	}

	type got struct {
		i int
		f *xtc.Frame
	}
	// Two tailers share the reader, so a head refresh one of them makes
	// swaps the read path under the other's reads.
	const tailers = 2
	results := make(chan got, tailers*frames)
	errc := make(chan error, tailers)
	var wg sync.WaitGroup
	for r := 0; r < tailers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				f, err := lr.ReadFrameAt(i)
				if err == io.EOF {
					return
				}
				if err != nil {
					errc <- err
					return
				}
				results <- got{i, f}
			}
		}()
	}

	batches := batchFrames(splitFrames(t, traj), 5)
	for _, b := range batches {
		if _, err := li.Append(b); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond) // let the tail catch up mid-stream
	}
	if _, err := li.Seal(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	close(results)

	want := readSubsetFrames(t, a, "/ds", TagProtein)
	if len(want) != frames {
		t.Fatalf("sealed subset has %d frames", len(want))
	}
	seen := 0
	for g := range results {
		seen++
		if !sameFrames([]*xtc.Frame{g.f}, []*xtc.Frame{want[g.i]}) {
			t.Fatalf("tailed frame %d differs from sealed frame", g.i)
		}
	}
	if seen != tailers*frames {
		t.Fatalf("%d tailers observed %d frames, want %d each", tailers, seen, frames)
	}
	if lr.Live() {
		t.Error("sealed dataset still reports live")
	}
	if n := lr.Frames(); n != frames {
		t.Errorf("sealed reader frames = %d", n)
	}
}

// TestLiveReaderVerifiesStagedFrames flips a byte inside one published frame
// of the staged subset. A tailing read must refuse that frame with
// vfs.ErrCorrupted — checked against live.index.<tag> — instead of handing
// back a wrong coordinate, still serve the frames around it, and count both.
func TestLiveReaderVerifiesStagedFrames(t *testing.T) {
	const frames, bad = 5, 2
	pdbBytes, traj, _ := testDataset(t, 200, frames)
	reg := metrics.NewRegistry()
	a, ssd, _ := newADA(t, nil, Options{Metrics: reg})
	li, err := a.OpenLiveIngest("/ds", pdbBytes)
	if err != nil {
		t.Fatal(err)
	}
	defer li.Abort()
	if _, err := li.Append(traj); err != nil {
		t.Fatal(err)
	}
	tail := func() (got []*xtc.Frame, errs []error) {
		lr, err := a.OpenLiveReader("/ds", TagProtein, time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		defer lr.Close()
		for i := 0; i < frames; i++ {
			f, err := lr.ReadFrameAt(i)
			got, errs = append(got, f), append(errs, err)
		}
		return got, errs
	}
	clean, errs := tail()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("clean tail frame %d: %v", i, err)
		}
	}

	const staged = "/mnt1/ds/staging.subset.p"
	data, err := vfs.ReadFile(ssd, staged)
	if err != nil {
		t.Fatal(err)
	}
	size := len(data) / frames // raw frames of one system are all one size
	data[bad*size+size/2] ^= 0x01
	if err := vfs.WriteFile(ssd, staged, data); err != nil {
		t.Fatal(err)
	}
	before := reg.Snapshot()
	got, errs := tail()
	for i := range got {
		if i == bad {
			if !errors.Is(errs[i], vfs.ErrCorrupted) {
				t.Errorf("flipped frame %d read back as %v, want vfs.ErrCorrupted", i, errs[i])
			}
			continue
		}
		if errs[i] != nil || !sameFrames(got[i:i+1], clean[i:i+1]) {
			t.Errorf("frame %d beside the flipped one: err %v, or differs from the clean read", i, errs[i])
		}
	}
	after := reg.Snapshot()
	if n := after.Counters["core.verify.frames"] - before.Counters["core.verify.frames"]; n != frames-1 {
		t.Errorf("core.verify.frames grew by %d over the tail, want %d", n, frames-1)
	}
	if n := after.Counters["core.verify.corrupted"] - before.Counters["core.verify.corrupted"]; n != 1 {
		t.Errorf("core.verify.corrupted grew by %d over the tail, want 1", n)
	}
}

// TestLiveReaderWaitFrames covers the bounded wait API and Close unblocking
// a parked reader.
func TestLiveReaderWaitFrames(t *testing.T) {
	pdbBytes, traj, _ := testDataset(t, 200, 6)
	a, _, _ := newADA(t, nil, Options{Metrics: metrics.NewRegistry()})
	li, err := a.OpenLiveIngest("/ds", pdbBytes)
	if err != nil {
		t.Fatal(err)
	}
	lr, err := a.OpenLiveReader("/ds", TagProtein, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}

	// Timeout with no producer progress returns the current count.
	if n, err := lr.WaitFrames(1, 20*time.Millisecond); err != nil || n != 0 {
		t.Fatalf("WaitFrames on idle head = %d, %v", n, err)
	}

	perFrame := splitFrames(t, traj)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, f := range perFrame[:3] {
			li.Append(f)
		}
	}()
	if n, err := lr.WaitFrames(3, 5*time.Second); err != nil || n < 3 {
		t.Fatalf("WaitFrames(3) = %d, %v", n, err)
	}
	<-done

	// A reader parked past the head unblocks with ErrLiveClosed on Close.
	readErr := make(chan error, 1)
	go func() {
		_, err := lr.ReadFrameAt(5)
		readErr <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if err := lr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-readErr; !errors.Is(err, ErrLiveClosed) {
		t.Fatalf("parked read after Close = %v, want ErrLiveClosed", err)
	}
	if _, err := li.Seal(); err != nil {
		t.Fatal(err)
	}
}

// gateFS parks the first call of one operation ("rename", matched by its
// target, or "remove") on a path ending in suffix until release is closed,
// and announces it on reached: a way to stop Seal at a chosen step of its
// commit.
type gateFS struct {
	vfs.FS
	op, suffix       string
	once             sync.Once
	reached, release chan struct{}
}

func (g *gateFS) park(op, name string) {
	if op == g.op && strings.HasSuffix(name, g.suffix) {
		g.once.Do(func() {
			close(g.reached)
			<-g.release
		})
	}
}

func (g *gateFS) Rename(oldname, newname string) error {
	g.park("rename", newname)
	return g.FS.Rename(oldname, newname)
}

func (g *gateFS) Remove(name string) error {
	g.park("remove", name)
	return g.FS.Remove(name)
}

// TestLiveReaderSealUnderReader is the regression test for a reader that
// reloads the head while Seal is mid-commit. The producer publishes a last
// batch the reader has not seen and seals; Seal is parked either just before
// it publishes the manifest (the staged subsets already renamed away) or
// just before it sweeps live.json (the manifest already there). In both
// windows the reader finds an unsealed head whose staged subset is gone; it
// must wait for the manifest and read the last frame from the sealed
// container instead of failing with ErrNotExist.
func TestLiveReaderSealUnderReader(t *testing.T) {
	const frames = 10
	pdbBytes, traj, _ := testDataset(t, 200, frames)
	batches := batchFrames(splitFrames(t, traj), 5)
	for _, tc := range []struct {
		name, op, suffix string
		committed        bool // the manifest is published while Seal is parked
	}{
		{"before-manifest", "rename", "/" + droppingManifest, false},
		{"before-sweep", "remove", "/" + liveHeadName, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ssd, hdd := vfs.NewMemFS(), vfs.NewMemFS()
			gate := &gateFS{FS: ssd, op: tc.op, suffix: tc.suffix,
				reached: make(chan struct{}), release: make(chan struct{})}
			store, err := plfs.New(
				plfs.Backend{Name: "ssd", FS: gate, Mount: "/mnt1"},
				plfs.Backend{Name: "hdd", FS: hdd, Mount: "/mnt2"},
			)
			if err != nil {
				t.Fatal(err)
			}
			producer := New(store, nil, Options{Metrics: metrics.NewRegistry()})
			// The reader is its own stack over the same backends, as a
			// viewer process is: parking Seal inside the producer's store
			// must not park the reader with it.
			a := rebootADA(t, ssd, hdd)
			li, err := producer.OpenLiveIngest("/ds", pdbBytes)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := li.Append(batches[0]); err != nil {
				t.Fatal(err)
			}
			// An hour of allowed staleness: the reader reloads the head only
			// when a read runs past the frames it knows.
			lr, err := a.OpenLiveReader("/ds", TagProtein, time.Hour)
			if err != nil {
				t.Fatal(err)
			}
			defer lr.Close()
			if _, err := lr.ReadFrameAt(4); err != nil {
				t.Fatal(err)
			}
			if _, err := li.Append(batches[1]); err != nil {
				t.Fatal(err)
			}
			sealed := make(chan error, 1)
			go func() {
				_, err := li.Seal()
				sealed <- err
			}()
			<-gate.reached

			type read struct {
				f   *xtc.Frame
				err error
			}
			got := make(chan read, 1)
			go func() {
				f, err := lr.ReadFrameAt(frames - 1)
				got <- read{f, err}
			}()
			var r read
			if tc.committed {
				r = <-got // served while Seal is still parked
				close(gate.release)
			} else {
				select {
				case r = <-got:
					t.Fatalf("read returned (%v) before the manifest was published", r.err)
				case <-time.After(10 * liveSealPoll):
				}
				close(gate.release)
				r = <-got
			}
			if err := <-sealed; err != nil {
				t.Fatal(err)
			}
			if r.err != nil {
				t.Fatalf("read of the last frame across the seal: %v", r.err)
			}
			want := readSubsetFrames(t, a, "/ds", TagProtein)
			if !sameFrames([]*xtc.Frame{r.f}, want[frames-1:]) {
				t.Error("frame read across the seal differs from the sealed container's")
			}
			if lr.Live() || lr.Frames() != frames {
				t.Errorf("after the seal: live=%v frames=%d, want sealed with %d", lr.Live(), lr.Frames(), frames)
			}
		})
	}
}

// TestLiveReaderHoldsOneHandle tails a producer publishing one frame per
// head, reading each frame as it lands, and counts the handles the reader's
// own stack holds open: a head refresh closes the read path it replaces, so
// however many heads the tail crosses — and across the seal — one payload
// handle stays open, and Close releases it.
func TestLiveReaderHoldsOneHandle(t *testing.T) {
	const frames = 24
	pdbBytes, traj, _ := testDataset(t, 200, frames)
	ssd, hdd := vfs.NewMemFS(), vfs.NewMemFS()
	producer := rebootADA(t, ssd, hdd)
	var opened, closed atomic.Int64
	store, err := plfs.New(
		plfs.Backend{Name: "ssd", FS: handleFS{ssd, &opened, &closed}, Mount: "/mnt1"},
		plfs.Backend{Name: "hdd", FS: handleFS{hdd, &opened, &closed}, Mount: "/mnt2"},
	)
	if err != nil {
		t.Fatal(err)
	}
	a := New(store, nil, Options{Metrics: metrics.NewRegistry()})

	li, err := producer.OpenLiveIngest("/ds", pdbBytes)
	if err != nil {
		t.Fatal(err)
	}
	// An hour of allowed staleness: each read past the known head loads
	// exactly the one head that published it.
	lr, err := a.OpenLiveReader("/ds", TagProtein, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	holding := func(when string) {
		t.Helper()
		if open := opened.Load() - closed.Load(); open > 2 {
			t.Fatalf("%s: the reader holds %d open handles, want at most 2", when, open)
		}
	}
	var got []*xtc.Frame
	for i, frame := range splitFrames(t, traj) {
		if _, err := li.Append(frame); err != nil {
			t.Fatal(err)
		}
		f, err := lr.ReadFrameAt(i)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		got = append(got, f)
		holding(fmt.Sprintf("after %d one-frame heads", i+1))
	}
	if _, err := li.Seal(); err != nil {
		t.Fatal(err)
	}
	if _, err := lr.ReadFrameAt(frames); err != io.EOF {
		t.Fatalf("read past the sealed end: %v, want io.EOF", err)
	}
	holding("after the seal")
	if !sameFrames(got, readSubsetFrames(t, a, "/ds", TagProtein)) {
		t.Error("tailed frames differ from the sealed container's")
	}
	if err := lr.Close(); err != nil {
		t.Fatal(err)
	}
	if o, c := opened.Load(), closed.Load(); o != c {
		t.Errorf("after Close the reader's stack opened %d handles and closed %d", o, c)
	}
}

// crashLive runs one live session (open, append every batch, seal) with the
// injector's faults applied, discarding errors: a fired kill rule is the
// simulated crash.
func crashLive(t *testing.T, in *faultfs.Injector, pdbBytes []byte, batches [][]byte) (*vfs.MemFS, *vfs.MemFS) {
	t.Helper()
	ssd, hdd := vfs.NewMemFS(), vfs.NewMemFS()
	store, err := plfs.New(
		plfs.Backend{Name: "ssd", FS: faultfs.Wrap(ssd, in), Mount: "/mnt1"},
		plfs.Backend{Name: "hdd", FS: faultfs.Wrap(hdd, in), Mount: "/mnt2"},
	)
	if err != nil {
		return ssd, hdd
	}
	a := New(store, nil, Options{Metrics: metrics.NewRegistry()})
	li, err := a.OpenLiveIngest("/ds", pdbBytes)
	if err != nil {
		return ssd, hdd
	}
	for _, b := range batches {
		if _, err := li.Append(b); err != nil {
			return ssd, hdd
		}
	}
	li.Seal()
	return ssd, hdd
}

// TestLiveRecoverKillMatrix is the streaming analogue of the PR-4 crash
// matrix: a kill-after-Nth-op fault swept across every backend operation of
// a live session. After each kill the stack reboots and recovers; a live
// dataset's published prefix must be byte-identical to the golden prefix,
// and resuming plus sealing must reproduce the one-shot container exactly.
func TestLiveRecoverKillMatrix(t *testing.T) {
	const frames = journalCkptEvery + 11
	pdbBytes, traj, _ := testDataset(t, 200, frames)
	perFrame := splitFrames(t, traj)
	batches := batchFrames(perFrame, 7)

	_, goldenBytes := goldenDroppings(t, pdbBytes, traj)
	goldenSubset := map[string][]byte{
		TagProtein: goldenBytes[subsetPrefix+TagProtein],
		TagMisc:    goldenBytes[subsetPrefix+TagMisc],
	}

	// Probe the op count with a rule that never fires.
	probe := faultfs.MustNew(1, faultfs.Rule{Kind: faultfs.KindErr, Op: "no-such-op", Nth: 1})
	crashLive(t, probe, pdbBytes, batches)
	total := probe.Ops()
	if total < 50 {
		t.Fatalf("probe live session saw only %d backend ops", total)
	}

	// Live sessions publish per batch, so the op count is large; stride the
	// sweep to keep the matrix fast while still crossing every phase.
	stride := total / 120
	if stride < 1 {
		stride = 1
	}
	var live, committed, rolledBack int
	for n := int64(1); n <= total; n += stride {
		in := faultfs.MustNew(1, faultfs.Rule{Kind: faultfs.KindKill, Nth: int(n)})
		ssd, hdd := crashLive(t, in, pdbBytes, batches)
		a := rebootADA(t, ssd, hdd)
		// The last version the dead producer published; every head after
		// it — Recover's, the resume's, each append's — must be newer.
		var version int64
		if h, err := a.LiveHead("/ds"); err == nil && !h.Sealed {
			version = h.Version
		}
		newer := func(what string, got int64) {
			t.Helper()
			if got <= version {
				t.Fatalf("kill %d/%d: %s published head version %d after %d", n, total, what, got, version)
			}
			version = got
		}
		acts, err := a.Recover()
		if err != nil {
			t.Fatalf("kill %d/%d: recover: %v", n, total, err)
		}

		switch acts["/ds"] {
		case RecoveryLive:
			live++
			// The republished head must describe a prefix byte-identical
			// to the golden container's subsets.
			h, err := a.LiveHead("/ds")
			if err != nil {
				t.Fatalf("kill %d/%d: live head: %v", n, total, err)
			}
			if h.Sealed {
				t.Fatalf("kill %d/%d: recovered live head is sealed", n, total)
			}
			newer("Recover", h.Version)
			for tag, sub := range h.Subsets {
				staged, err := a.readDropping("/ds", stagingPrefix+subsetPrefix+tag)
				if err != nil {
					t.Fatalf("kill %d/%d: staged %s: %v", n, total, tag, err)
				}
				if int64(len(staged)) != sub.Bytes {
					t.Fatalf("kill %d/%d: staged %s is %d bytes, head says %d",
						n, total, tag, len(staged), sub.Bytes)
				}
				if !bytes.Equal(staged, goldenSubset[tag][:sub.Bytes]) {
					t.Fatalf("kill %d/%d: recovered %s prefix differs from golden", n, total, tag)
				}
			}
			// Resume from the recovered frame count and run to seal: the
			// result must be the one-shot container, byte for byte.
			li, err := a.ResumeLiveIngest("/ds", pdbBytes)
			if err != nil {
				t.Fatalf("kill %d/%d: resume live: %v", n, total, err)
			}
			if li.Frames() != h.Frames {
				t.Fatalf("kill %d/%d: resumed at frame %d, head says %d", n, total, li.Frames(), h.Frames)
			}
			newer("ResumeLiveIngest", li.Head().Version)
			for _, f := range perFrame[li.Frames():] {
				if _, err := li.Append(f); err != nil {
					t.Fatalf("kill %d/%d: resumed append: %v", n, total, err)
				}
				if h, err := a.LiveHead("/ds"); err != nil {
					t.Fatalf("kill %d/%d: head after resumed append: %v", n, total, err)
				} else {
					newer("Append", h.Version)
				}
			}
			if _, err := li.Seal(); err != nil {
				t.Fatalf("kill %d/%d: resumed seal: %v", n, total, err)
			}
			assertGolden(t, a, goldenBytes, fmt.Sprintf("kill %d/%d", n, total))

		case RecoveryCommitted, RecoveryClean, RecoverySwept:
			committed++
			assertGolden(t, a, goldenBytes, fmt.Sprintf("kill %d/%d", n, total))

		default:
			// Rolled back (or the container never formed): nothing lingers.
			names, lerr := a.Datasets()
			if lerr != nil {
				t.Fatalf("kill %d/%d: list after rollback: %v", n, total, lerr)
			}
			if len(names) != 0 {
				t.Fatalf("kill %d/%d: rollback left containers: %v (acts=%v)", n, total, names, acts)
			}
			rolledBack++
		}
	}
	if live == 0 || committed == 0 || rolledBack == 0 {
		t.Fatalf("sweep over %d ops: live %d, committed %d, rolledback %d — all three must occur",
			total, live, committed, rolledBack)
	}
	t.Logf("live kill matrix: %d ops (stride %d), %d live, %d committed, %d rolled back",
		total, stride, live, committed, rolledBack)
}

// TestResumeLiveRejectsOneShot pins the resume-mode cross-checks.
func TestResumeLiveRejectsOneShot(t *testing.T) {
	pdbBytes, traj, _ := testDataset(t, 200, 4)
	a, _, _ := newADA(t, nil, Options{Metrics: metrics.NewRegistry()})

	// A live journal is rejected by ResumeIngest...
	li, err := a.OpenLiveIngest("/live", pdbBytes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := li.Append(traj); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ResumeIngest("/live", pdbBytes, bytes.NewReader(traj)); err == nil ||
		!strings.Contains(err.Error(), "ResumeLiveIngest") {
		t.Fatalf("ResumeIngest on a live journal = %v", err)
	}
	if err := li.Abort(); err != nil {
		t.Fatal(err)
	}

	// ...and a one-shot journal by ResumeLiveIngest.
	if err := a.containers.CreateContainer("/oneshot"); err != nil {
		t.Fatal(err)
	}
	j, err := a.openJournal("/oneshot")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.append(&journalRecord{Type: journalBegin, Logical: "/oneshot"}); err != nil {
		t.Fatal(err)
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ResumeLiveIngest("/oneshot", pdbBytes); err == nil ||
		!strings.Contains(err.Error(), "ResumeIngest") {
		t.Fatalf("ResumeLiveIngest on a one-shot journal = %v", err)
	}
}

// backendOps sums what vfs.Instrument counted on both backends of a metered
// stack: every file-system op plus every file write and read call.
func backendOps(reg *metrics.Registry) int64 {
	s := reg.Snapshot()
	var n int64
	for name, c := range s.Counters {
		if strings.Contains(name, ".ops.") {
			n += c
		}
	}
	for _, be := range []string{"fs.ssd", "fs.hdd"} {
		n += s.Histograms[be+".write.ns"].Count + s.Histograms[be+".read.ns"].Count
	}
	return n
}

// TestLiveAppendOpsPerBatch pins what one Append costs the backends — for a
// five-frame batch ten subset writes, one journal checkpoint, and the
// republish of two live indexes and the head with the container-index
// updates under them — to the count measured at the commit before Append
// moved onto the session's frame loop (cf31b60).
func TestLiveAppendOpsPerBatch(t *testing.T) {
	const parentOps = 59
	pdbBytes, traj, _ := testDataset(t, 200, 10)
	reg := metrics.NewRegistry()
	a := newMeteredADA(t, reg)
	li, err := a.OpenLiveIngest("/ds", pdbBytes)
	if err != nil {
		t.Fatal(err)
	}
	defer li.Abort()
	for i, batch := range batchFrames(splitFrames(t, traj), 5) {
		before := backendOps(reg)
		if n, err := li.Append(batch); err != nil || n != 5 {
			t.Fatalf("append %d = %d, %v", i, n, err)
		}
		if got := backendOps(reg) - before; got != parentOps {
			t.Errorf("append %d issued %d backend ops, the parent commit %d", i, got, parentOps)
		}
	}
}

// TestLiveFailedWriteIsSticky fails one subset write once, after the other
// subset has taken the frame. The session must refuse every later Append and
// Seal with that error rather than commit subsets of different lengths; the
// published head stays at the last whole batch; and both ways out still
// work: Abort, and ResumeLiveIngest cutting back to the checkpoint.
func TestLiveFailedWriteIsSticky(t *testing.T) {
	pdbBytes, traj, _ := testDataset(t, 200, 6)
	batches := batchFrames(splitFrames(t, traj), 2)
	_, goldenBytes := goldenDroppings(t, pdbBytes, traj)

	// failed returns a session whose second batch hit the injected error:
	// the writers run in tag order, so hdd's "m" took the batch's first
	// frame before ssd's "p" — the next write on ssd once armed — failed.
	failed := func(t *testing.T) (*ADA, *LiveIngest, error) {
		in := faultfs.MustNew(1, faultfs.Rule{Kind: faultfs.KindErr, Op: "write", Nth: 1})
		in.SetEnabled(false)
		store, err := plfs.New(
			plfs.Backend{Name: "ssd", FS: faultfs.Wrap(vfs.NewMemFS(), in), Mount: "/mnt1"},
			plfs.Backend{Name: "hdd", FS: vfs.NewMemFS(), Mount: "/mnt2"},
		)
		if err != nil {
			t.Fatal(err)
		}
		a := New(store, nil, Options{Metrics: metrics.NewRegistry()})
		li, err := a.OpenLiveIngest("/ds", pdbBytes)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := li.Append(batches[0]); err != nil {
			t.Fatal(err)
		}
		in.SetEnabled(true)
		n, werr := li.Append(batches[1])
		if !errors.Is(werr, faultfs.ErrInjected) || n != 0 {
			t.Fatalf("append over the failing write = %d, %v", n, werr)
		}
		// The fault fired once; nothing below fails any more.
		if n, err := li.Append(batches[1]); err != werr || n != 0 {
			t.Fatalf("append after the failed write = %d, %v; want the first error", n, err)
		}
		if _, err := li.Seal(); err != werr {
			t.Fatalf("seal after the failed write = %v; want the first error", err)
		}
		if h, err := a.LiveHead("/ds"); err != nil || h.Sealed || h.Frames != 2 {
			t.Fatalf("head after the failed write = %+v, %v; want 2 frames, live", h, err)
		}
		return a, li, werr
	}

	t.Run("abort", func(t *testing.T) {
		a, li, _ := failed(t)
		if err := li.Abort(); err != nil {
			t.Fatal(err)
		}
		if names, err := a.Datasets(); err != nil || len(names) != 0 {
			t.Fatalf("datasets after abort = %v, %v", names, err)
		}
	})
	t.Run("resume", func(t *testing.T) {
		a, _, _ := failed(t)
		li, err := a.ResumeLiveIngest("/ds", pdbBytes)
		if err != nil {
			t.Fatal(err)
		}
		if li.Frames() != 2 {
			t.Fatalf("resumed at frame %d, want the checkpoint's 2", li.Frames())
		}
		for _, b := range batches[1:] {
			if _, err := li.Append(b); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := li.Seal(); err != nil {
			t.Fatal(err)
		}
		assertGolden(t, a, goldenBytes, "resumed after a failed write")
	})
}
