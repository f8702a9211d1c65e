package core

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/plfs"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/xtc"
)

// The sequential readers' fetch ahead (fetchAhead): in stream order, one
// verified read per frame, an error after every frame before it and sticky,
// Close waiting the fetcher out, in line on one core, and nothing allocated
// per frame once the buffers circulate.

// needAhead skips a test of the fetch goroutine on a scheduler with one core,
// where the readers fetch in line.
func needAhead(t *testing.T) {
	t.Helper()
	if xtc.DefaultWorkers(0) < 2 {
		t.Skip("one core: the readers fetch in line")
	}
}

// settledGoroutines waits for the goroutine count to fall back to base and
// reports the count it settled at.
func settledGoroutines(base int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > base && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// payloadGateFS counts the reads of every subset payload opened through it
// and, once armed, parks the read numbered park until release is closed.
type payloadGateFS struct {
	vfs.FS
	reads   atomic.Int64
	park    int64 // 1-based read number to park; 0 parks none
	parked  chan struct{}
	release chan struct{}
	late    atomic.Int64 // reads issued on a handle after its Close
}

func newPayloadGateFS(fsys vfs.FS, park int64) *payloadGateFS {
	return &payloadGateFS{FS: fsys, park: park, parked: make(chan struct{}), release: make(chan struct{})}
}

func (g *payloadGateFS) Open(name string) (vfs.File, error) {
	f, err := g.FS.Open(name)
	if err != nil || !strings.Contains(name, "/"+subsetPrefix) {
		return f, err
	}
	return &gatedFile{File: f, g: g}, nil
}

type gatedFile struct {
	vfs.File
	g      *payloadGateFS
	closed atomic.Bool
}

func (f *gatedFile) ReadAt(p []byte, off int64) (int, error) {
	if f.closed.Load() {
		f.g.late.Add(1)
	}
	if n := f.g.reads.Add(1); n == f.g.park {
		close(f.g.parked)
		<-f.g.release
	}
	return f.File.ReadAt(p, off)
}

func (f *gatedFile) Close() error {
	f.closed.Store(true)
	return f.File.Close()
}

// gatedADA is newADA with both backends behind one payloadGateFS each.
func gatedADA(t *testing.T, park int64) (*ADA, *payloadGateFS, *payloadGateFS) {
	t.Helper()
	ssd, hdd := newPayloadGateFS(vfs.NewMemFS(), park), newPayloadGateFS(vfs.NewMemFS(), park)
	store, err := plfs.New(
		plfs.Backend{Name: "ssd", FS: ssd, Mount: "/mnt1"},
		plfs.Backend{Name: "hdd", FS: hdd, Mount: "/mnt2"},
	)
	if err != nil {
		t.Fatal(err)
	}
	return New(store, nil, Options{}), ssd, hdd
}

// TestSubsetReaderCloseMidStream closes a reader after k of n frames while
// its fetcher is parked in a read: Close waits for that read and no longer,
// fetches none of the frames after it, leaves no goroutine behind, and no
// read reaches the handle after it returns.
func TestSubsetReaderCloseMidStream(t *testing.T) {
	needAhead(t)
	const frames, k = 30, 3
	pdbBytes, traj, _ := testDataset(t, 200, frames)
	a, ssd, _ := gatedADA(t, 0)
	if _, err := a.Ingest("/ds", pdbBytes, bytes.NewReader(traj)); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	ssd.reads.Store(0)
	ssd.park = k + 2 // the fetcher parks two frames ahead of the consumer
	sr, err := a.OpenSubset("/ds", TagProtein)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if _, err := sr.ReadFrame(); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	<-ssd.parked
	closed := make(chan error)
	go func() { closed <- sr.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) with the fetcher's read still in progress", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(ssd.release)
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return once the read in progress did")
	}
	// At most the parked read, the other fetcher's read of the frame after
	// it, and one more that fetcher claimed before the parked read began.
	reads := ssd.reads.Load()
	if reads > k+4 {
		t.Errorf("%d payload reads for %d frames consumed: the fetch went on past the parked read", reads, k)
	}
	time.Sleep(10 * time.Millisecond)
	if got := ssd.reads.Load(); got != reads || ssd.late.Load() != 0 {
		t.Errorf("reads after Close returned: %d more, %d on the closed handle", got-reads, ssd.late.Load())
	}
	if n := settledGoroutines(base); n > base {
		t.Errorf("%d goroutines after Close, %d before the open", n, base)
	}
	if _, err := sr.ReadFrame(); !errors.Is(err, errReaderClosed) {
		t.Errorf("ReadFrame after Close = %v, want errReaderClosed", err)
	}
}

// payloadPath is the node-side path of a subset payload in newADA's stack.
func payloadPath(t *testing.T, fs map[string]*vfs.MemFS, tag string) (*vfs.MemFS, string) {
	t.Helper()
	for mount, m := range fs {
		p := mount + "/ds/" + subsetPrefix + tag
		if _, err := m.Stat(p); err == nil {
			return m, p
		}
	}
	t.Fatalf("no payload for subset %s", tag)
	return nil, ""
}

// flipFrameByte flips one byte inside frame k of the payload at path.
func flipFrameByte(t *testing.T, fsys vfs.FS, path string, idx *xtc.Index, k int) {
	t.Helper()
	data, err := vfs.ReadFile(fsys, path)
	if err != nil {
		t.Fatal(err)
	}
	data[idx.Offset(k)+idx.Size(k)/2] ^= 0x10
	if err := vfs.WriteFile(fsys, path, data); err != nil {
		t.Fatal(err)
	}
}

// subsetIndex reads a committed subset's frame index.
func subsetIndex(t *testing.T, a *ADA, logical, tag string) *xtc.Index {
	t.Helper()
	b, err := a.readDropping(logical, indexPrefix+tag)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := xtc.UnmarshalIndex(b)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// TestSubsetReaderCorruptFrameIsSticky stores frame k of a single-copy
// payload corrupt: the reader hands out frames 0..k-1, then
// vfs.ErrCorrupted at frame k and the same error on every later call —
// fetching ahead and in line alike.
func TestSubsetReaderCorruptFrameIsSticky(t *testing.T) {
	const frames, k = 12, 5
	pdbBytes, traj, _ := testDataset(t, 200, frames)
	a, ssd, hdd := newADA(t, nil, Options{})
	if _, err := a.Ingest("/ds", pdbBytes, bytes.NewReader(traj)); err != nil {
		t.Fatal(err)
	}
	clean := readSubsetFrames(t, a, "/ds", TagProtein)
	m, path := payloadPath(t, map[string]*vfs.MemFS{"/mnt1": ssd, "/mnt2": hdd}, TagProtein)
	flipFrameByte(t, m, path, subsetIndex(t, a, "/ds", TagProtein), k)

	for _, procs := range []int{runtime.GOMAXPROCS(0), 1} {
		prev := runtime.GOMAXPROCS(procs)
		sr, err := a.OpenSubset("/ds", TagProtein)
		if err != nil {
			t.Fatal(err)
		}
		var got []*xtc.Frame
		var first error
		for i := 0; i < frames+2; i++ {
			f, err := sr.ReadFrame()
			if err == nil {
				got = append(got, f)
				continue
			}
			if first == nil {
				first = err
			} else if err != first {
				t.Errorf("GOMAXPROCS %d: call %d after the error returned %v, want %v again", procs, i, err, first)
			}
		}
		sr.Close()
		runtime.GOMAXPROCS(prev)
		if !errors.Is(first, vfs.ErrCorrupted) {
			t.Errorf("GOMAXPROCS %d: error %v, want vfs.ErrCorrupted", procs, first)
		}
		if !sameFrames(got, clean[:k]) {
			t.Errorf("GOMAXPROCS %d: %d frames before the error, want the %d clean ones", procs, len(got), k)
		}
	}
}

// TestSubsetReaderFailsOverCorruptCopy rots one copy of frame k on a 3-node
// R=2 cluster: the sequential reader still returns every clean frame,
// failing that one over to the good copy.
func TestSubsetReaderFailsOverCorruptCopy(t *testing.T) {
	const frames, k = 12, 7
	pdbBytes, traj, _ := testDataset(t, 200, frames)
	a, c, nodes, reg := newClusterADA(t)
	if _, err := a.Ingest("/ds", pdbBytes, bytes.NewReader(traj)); err != nil {
		t.Fatal(err)
	}
	clean := readSubsetFrames(t, a, "/ds", TagProtein)
	const payload = "/clu/ds/" + subsetPrefix + TagProtein
	flipFrameByte(t, nodes[c.Table().Place(payload)[0]], payload, subsetIndex(t, a, "/ds", TagProtein), k)
	if got := readSubsetFrames(t, a, "/ds", TagProtein); len(got) != frames || !sameFrames(got, clean) {
		t.Fatalf("read over one rotten copy returned %d frames, or frames that differ from the clean read", len(got))
	}
	snap := reg.Snapshot()
	if snap.Counters["core.verify.corrupted"] != 1 || snap.Counters["placement.failover.reads"] < 1 {
		t.Errorf("core.verify.corrupted = %d, placement.failover.reads = %d; want 1 and at least 1",
			snap.Counters["core.verify.corrupted"], snap.Counters["placement.failover.reads"])
	}
}

// TestSubsetReaderInlineOnOneCore: with one core to run on, the reader
// fetches every frame in line and starts no goroutine.
func TestSubsetReaderInlineOnOneCore(t *testing.T) {
	const frames = 10
	pdbBytes, traj, _ := testDataset(t, 200, frames)
	a, _, _ := newADA(t, nil, Options{})
	if _, err := a.Ingest("/ds", pdbBytes, bytes.NewReader(traj)); err != nil {
		t.Fatal(err)
	}
	want := readSubsetFrames(t, a, "/ds", TagProtein)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	base := settledGoroutines(runtime.NumGoroutine())
	sr, err := a.OpenSubset("/ds", TagProtein)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	var got []*xtc.Frame
	for {
		f, err := sr.ReadFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, f)
		if n := runtime.NumGoroutine(); n != base || sr.ahead.n != 0 || sr.ahead.ring != nil {
			t.Fatalf("frame %d: %d goroutines (%d before the open), %d fetchers, a %d-slot ring",
				len(got)-1, n, base, sr.ahead.n, len(sr.ahead.ring))
		}
	}
	if !sameFrames(got, want) {
		t.Error("frames read in line differ from the frames read ahead")
	}
}

// TestFullReaderCloseWhileFetching closes a FullReader after one frame, with
// the fetchers of both its subsets running — in the first round still
// fetching, in the second blocked on a full channel — and from another
// goroutine than the one that read: under -race this is the hand-off
// between consumer, fetchers and Close.
func TestFullReaderCloseWhileFetching(t *testing.T) {
	needAhead(t)
	const frames = maxAhead + 16 // more than a channel holds
	pdbBytes, traj, _ := testDataset(t, 200, frames)
	a, _, _ := newADA(t, nil, Options{})
	if _, err := a.Ingest("/ds", pdbBytes, bytes.NewReader(traj)); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	for _, full := range []bool{false, true} {
		fr, err := a.OpenFull("/ds")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fr.ReadFrame(); err != nil {
			t.Fatal(err)
		}
		for _, sr := range fr.subsets {
			if sr.ahead.n == 0 {
				t.Fatalf("subset %s: no fetcher after the first frame", sr.Tag)
			}
			for deadline := time.Now().Add(5 * time.Second); full && !ringFull(&sr.ahead); {
				if time.Now().After(deadline) {
					t.Fatalf("subset %s: the fetch ring never filled", sr.Tag)
				}
				time.Sleep(time.Millisecond)
			}
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fr.Close(); err != nil {
				t.Error(err)
			}
		}()
		wg.Wait()
		if _, err := fr.ReadFrame(); !errors.Is(err, errReaderClosed) {
			t.Errorf("ReadFrame after Close = %v, want errReaderClosed", err)
		}
	}
	if n := settledGoroutines(base); n > base {
		t.Errorf("%d goroutines after two closed FullReaders, %d before", n, base)
	}
}

// ringFull reports whether every slot of the fetch ring holds a frame.
func ringFull(f *fetchAhead) bool {
	for _, slot := range f.ring {
		if len(slot) == 0 {
			return false
		}
	}
	return true
}

// TestSubsetReaderSteadyStateAllocs pins the sequential read's memory: once
// its buffers circulate, a frame read into a frame the reader reuses
// allocates nothing — fetching ahead or in line — and ReadFrame allocates
// only the frame it hands out (the Frame and its coordinates). Mallocs is
// process-wide, so a window can also catch the runtime's own allocations
// (the unique map's cleanup after a collection, sudogs for parked
// goroutines): the bar holds the median of five windows of the same reads,
// each on a fresh reader.
func TestSubsetReaderSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled decode scratch")
	}
	const frames, warm, windows = 60, 4, 5
	pdbBytes, traj, _ := testDataset(t, 200, frames)
	a, _, _ := newADA(t, nil, Options{})
	if _, err := a.Ingest("/ds", pdbBytes, bytes.NewReader(traj)); err != nil {
		t.Fatal(err)
	}
	mallocs := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	for _, procs := range []int{runtime.GOMAXPROCS(0), 1} {
		prev := runtime.GOMAXPROCS(procs)
		for _, keep := range []bool{false, true} {
			counts := make([]uint64, windows)
			for w := range counts {
				sr, err := a.OpenSubset("/ds", TagProtein)
				if err != nil {
					t.Fatal(err)
				}
				var dst xtc.Frame
				read := func() {
					var err error
					if keep {
						_, err = sr.ReadFrame()
					} else {
						_, err = sr.readFrameInto(&dst)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				// A collection that begins before the window and ends in it
				// empties the pooled decode scratch, and the read that refills
				// it allocates: settle the collector before the warm reads.
				runtime.GC()
				for i := 0; i < warm; i++ {
					read()
				}
				counts[w] = mallocs(func() {
					for i := warm; i < frames; i++ {
						read()
					}
				})
				sr.Close()
			}
			want := uint64(0)
			if keep {
				want = 2 * (frames - warm)
			}
			slices.Sort(counts)
			if n := counts[windows/2]; n > want {
				t.Errorf("GOMAXPROCS %d, keep %v: median %d allocations over %d frames (windows %v), want at most %d",
					procs, keep, n, frames-warm, counts, want)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// orderFS records, for every subset payload opened through it, the offsets
// its reads ask for in the order they are issued, and the most reads ever in
// flight at once; each read takes at least delay.
type orderFS struct {
	vfs.FS
	delay    time.Duration
	mu       sync.Mutex
	offsets  []int64
	inFlight int
	maxIn    int
}

func (o *orderFS) Open(name string) (vfs.File, error) {
	f, err := o.FS.Open(name)
	if err != nil || !strings.Contains(name, "/"+subsetPrefix+TagProtein) {
		return f, err
	}
	return &orderFile{File: f, o: o}, nil
}

type orderFile struct {
	vfs.File
	o *orderFS
}

func (f *orderFile) ReadAt(p []byte, off int64) (int, error) {
	o := f.o
	o.mu.Lock()
	o.offsets = append(o.offsets, off)
	o.inFlight++
	o.maxIn = max(o.maxIn, o.inFlight)
	o.mu.Unlock()
	time.Sleep(o.delay)
	defer func() {
		o.mu.Lock()
		o.inFlight--
		o.mu.Unlock()
	}()
	return f.File.ReadAt(p, off)
}

// orderADA is newADA with the ssd backend behind an orderFS, and env as its
// clock.
func orderADA(t *testing.T, env *sim.Env, delay time.Duration) (*ADA, *orderFS) {
	t.Helper()
	ssd := &orderFS{FS: vfs.NewMemFS(), delay: delay}
	store, err := plfs.New(
		plfs.Backend{Name: "ssd", FS: ssd, Mount: "/mnt1"},
		plfs.Backend{Name: "hdd", FS: vfs.NewMemFS(), Mount: "/mnt2"},
	)
	if err != nil {
		t.Fatal(err)
	}
	return New(store, env, Options{}), ssd
}

// readOrdered ingests frames, reads the protein subset back through a
// SubsetReader and returns the fetcher count, the frames, and the payload
// offsets read in issue order.
func readOrdered(t *testing.T, a *ADA, o *orderFS, frames int) (int, []*xtc.Frame, []int64) {
	t.Helper()
	pdbBytes, traj, _ := testDataset(t, 200, frames)
	if _, err := a.Ingest("/ds", pdbBytes, bytes.NewReader(traj)); err != nil {
		t.Fatal(err)
	}
	o.mu.Lock()
	o.offsets, o.maxIn = nil, 0
	o.mu.Unlock()
	sr, err := a.OpenSubset("/ds", TagProtein)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	var got []*xtc.Frame
	for {
		f, err := sr.ReadFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, f)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return sr.ahead.n, got, append([]int64(nil), o.offsets...)
}

// TestSubsetReaderTwoReadsInFlight: on a real store two fetchers read each
// frame once, never more than two reads at a time and two at a time at
// some point, and the frames come out in stream order.
func TestSubsetReaderTwoReadsInFlight(t *testing.T) {
	needAhead(t)
	const frames = 40
	a, o := orderADA(t, nil, 300*time.Microsecond)
	n, got, offsets := readOrdered(t, a, o, frames)
	if n != 2 {
		t.Fatalf("%d fetchers on a real store, want 2", n)
	}
	b, _, _ := newADA(t, nil, Options{})
	pdbBytes, traj, _ := testDataset(t, 200, frames)
	if _, err := b.Ingest("/ds", pdbBytes, bytes.NewReader(traj)); err != nil {
		t.Fatal(err)
	}
	if want := readSubsetFrames(t, b, "/ds", TagProtein); !sameFrames(got, want) {
		t.Error("frames read by two fetchers differ from the stored frames, or come out of order")
	}
	seen := map[int64]bool{}
	for _, off := range offsets {
		if seen[off] {
			t.Errorf("offset %d read twice", off)
		}
		seen[off] = true
	}
	if len(seen) != frames {
		t.Errorf("%d distinct frames read, want %d", len(seen), frames)
	}
	if o.maxIn != 2 {
		t.Errorf("at most %d reads in flight, want 2", o.maxIn)
	}
}

// TestSubsetReaderVirtualClockReadsInOrder: under a virtual clock one
// fetcher reads the payload strictly in stream order, one read at a time —
// blockfs charges a seek to any read that does not continue the last.
func TestSubsetReaderVirtualClockReadsInOrder(t *testing.T) {
	needAhead(t)
	a, o := orderADA(t, sim.NewEnv(), 0)
	n, got, offsets := readOrdered(t, a, o, 30)
	if n != 1 || len(got) != 30 {
		t.Fatalf("%d fetchers, %d frames under a virtual clock; want 1 and 30", n, len(got))
	}
	for i := 1; i < len(offsets); i++ {
		if offsets[i] <= offsets[i-1] {
			t.Fatalf("read %d at offset %d after one at %d: out of stream order", i, offsets[i], offsets[i-1])
		}
	}
	if o.maxIn != 1 {
		t.Errorf("%d reads in flight under a virtual clock, want 1", o.maxIn)
	}
}
