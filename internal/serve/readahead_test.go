package serve

import (
	"errors"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/xtc"
)

// recordingSource is a sealed FrameSource that records which frames it was
// asked for, runs an optional gate before each read, and fails every read
// once closed, as a core.SubsetRandomReader over a closed rpc handle does.
type recordingSource struct {
	stubSource
	mu     sync.Mutex
	asked  map[int]int
	active atomic.Int64
	closed atomic.Bool
}

func newRecordingSource(frames int) *recordingSource {
	return &recordingSource{stubSource: stubSource{frames: frames, natoms: 10}, asked: map[int]int{}}
}

func (s *recordingSource) ReadFrameAt(i int) (*xtc.Frame, error) {
	s.active.Add(1)
	defer s.active.Add(-1)
	s.mu.Lock()
	s.asked[i]++
	s.mu.Unlock()
	fr, err := s.stubSource.ReadFrameAt(i)
	if s.closed.Load() {
		return nil, errors.New("rpc: unknown handle 7")
	}
	return fr, err
}

// frames returns the frames asked for so far, sorted.
func (s *recordingSource) frames() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := []int{}
	for i := range s.asked {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// TestReadAheadNeedsTwoDemands: direction comes from two consecutive
// demands. A handle that reads only its first frame, or jumps, reads nothing
// ahead; the second of two adjacent demands does.
func TestReadAheadNeedsTwoDemands(t *testing.T) {
	src := newRecordingSource(16)
	f, reg := newTestFabric(t, Config{Workers: 2})
	h := f.Open("alice", "/ds", "p", src.natoms, src)
	for _, i := range []int{0, 5, 9} {
		if _, err := h.ReadFrameAt(i); err != nil {
			t.Fatal(err)
		}
		waitIdle(t, f)
	}
	if n := reg.Snapshot().Counters["serve.ahead"]; n != 0 {
		t.Fatalf("first-frame and jumping demands submitted %d ahead flights", n)
	}
	if got, want := src.frames(), []int{0, 5, 9}; !reflect.DeepEqual(got, want) {
		t.Fatalf("source asked for %v, want %v", got, want)
	}
	if _, err := h.ReadFrameAt(10); err != nil {
		t.Fatal(err)
	}
	waitIdle(t, f)
	if got, want := src.frames(), []int{0, 5, 9, 10, 11, 12}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after 9 then 10 the source was asked for %v, want %v", got, want)
	}
}

// TestReadAheadReversesAndStopsAtEnds walks a handle up to the last frame
// and back down to the first: each step predicts in the direction of the
// last two demands, never below 0 or at or past the frame count, and skips
// frames already resident.
func TestReadAheadReversesAndStopsAtEnds(t *testing.T) {
	src := newRecordingSource(6)
	f, reg := newTestFabric(t, Config{Workers: 1})
	h := f.Open("alice", "/ds", "p", src.natoms, src)
	for _, step := range []struct {
		frame int
		asked []int
		ahead int64
	}{
		{3, []int{3}, 0},
		{4, []int{3, 4, 5}, 1}, // 6 is past the end
		{5, []int{3, 4, 5}, 1},
		{4, []int{2, 3, 4, 5}, 2}, // reversed: 3 is resident, 2 is not
		{3, []int{1, 2, 3, 4, 5}, 3},
		{2, []int{0, 1, 2, 3, 4, 5}, 4},
		{1, []int{0, 1, 2, 3, 4, 5}, 4}, // -1 is before the start
		{0, []int{0, 1, 2, 3, 4, 5}, 4},
	} {
		fr, err := h.ReadFrameAt(step.frame)
		if err != nil {
			t.Fatal(err)
		}
		if int(fr.Step) != step.frame {
			t.Fatalf("frame %d came back as step %d", step.frame, fr.Step)
		}
		waitIdle(t, f)
		if got := src.frames(); !reflect.DeepEqual(got, step.asked) {
			t.Fatalf("after frame %d the source was asked for %v, want %v", step.frame, got, step.asked)
		}
		if n := reg.Snapshot().Counters["serve.ahead"]; n != step.ahead {
			t.Fatalf("after frame %d: %d ahead flights, want %d", step.frame, n, step.ahead)
		}
	}
	if src.reads.Load() != 6 {
		t.Errorf("%d source reads for 6 frames", src.reads.Load())
	}
}

// TestAheadFailureNotInherited: viewer B coalesces onto an ahead flight
// viewer A's handle set off; A's source closes while that flight reads it.
// The failure goes to nobody and is not cached: B looks up once more and
// gets the frame through its own source.
func TestAheadFailureNotInherited(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	srcA := newRecordingSource(8)
	srcA.gate = func(i int) {
		if i == 2 {
			close(started)
			<-release
		}
	}
	srcB := newRecordingSource(8)
	f, reg := newTestFabric(t, Config{Workers: 2})
	a := f.Open("viewer-a", "/ds", "p", srcA.natoms, srcA)
	b := f.Open("viewer-b", "/ds", "p", srcB.natoms, srcB)
	for _, i := range []int{0, 1} {
		if _, err := a.ReadFrameAt(i); err != nil {
			t.Fatal(err)
		}
	}
	<-started // A's ahead flight for frame 2 is reading A's source

	type result struct {
		fr  *xtc.Frame
		err error
	}
	got := make(chan result, 1)
	go func() {
		fr, err := b.ReadFrameAt(2)
		got <- result{fr, err}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for reg.Snapshot().Counters["serve.coalesced"] < 1 {
		if time.Now().After(deadline) {
			t.Fatal("viewer B never coalesced onto the ahead flight")
		}
		time.Sleep(time.Millisecond)
	}
	srcA.closed.Store(true)
	close(release)

	r := <-got
	if r.err != nil {
		t.Fatalf("viewer B inherited the ahead flight's failure: %v", r.err)
	}
	if r.fr.Step != 2 {
		t.Fatalf("viewer B got step %d, want 2", r.fr.Step)
	}
	if got := srcB.frames(); !reflect.DeepEqual(got, []int{2}) || srcB.reads.Load() != 1 {
		t.Errorf("viewer B's source read %v in %d reads, want frame 2 once", got, srcB.reads.Load())
	}
	waitIdle(t, f)
	// The frame B fetched is the one resident: the failure was never cached.
	if fr, err := a.ReadFrameAt(2); err != nil || fr != r.fr {
		t.Errorf("frame 2 after the retry = %p, %v; want B's frame %p from the cache", fr, err, r.fr)
	}
	waitIdle(t, f)
	c := reg.Snapshot().Counters
	if c["serve.requests"]+c["serve.ahead"] != c["serve.cache.hits"]+c["serve.decodes"]+c["serve.coalesced"] {
		t.Errorf("requests %d + ahead %d != hits %d + decodes %d + coalesced %d", c["serve.requests"],
			c["serve.ahead"], c["serve.cache.hits"], c["serve.decodes"], c["serve.coalesced"])
	}
}

// blockingLiveSource is a live FrameSource whose reads at or past the head
// block until released, as a tailing reader's do: a read-ahead there would
// park a worker.
type blockingLiveSource struct {
	growingSource
	beyond  atomic.Int64
	release chan struct{}
}

func (s *blockingLiveSource) ReadFrameAt(i int) (*xtc.Frame, error) {
	if i >= s.Frames() {
		s.beyond.Add(1)
		<-s.release
	}
	return s.growingSource.ReadFrameAt(i)
}

// TestLiveHandleNeverReadsAhead: a handle over a source live at Open reads
// no frame it was not asked for, so no worker waits at the head.
func TestLiveHandleNeverReadsAhead(t *testing.T) {
	src := &blockingLiveSource{growingSource: growingSource{natoms: 10}, release: make(chan struct{})}
	defer close(src.release)
	src.publish(6)
	f, reg := newTestFabric(t, Config{Workers: 2})
	h := f.Open("tailer", "/live", "p", src.natoms, src)
	for i := 0; i < 6; i++ {
		if _, err := h.ReadFrameAt(i); err != nil {
			t.Fatal(err)
		}
	}
	waitIdle(t, f)
	if n := reg.Snapshot().Counters["serve.ahead"]; n != 0 {
		t.Errorf("live handle submitted %d ahead flights", n)
	}
	if n := src.beyond.Load(); n != 0 {
		t.Errorf("%d reads at or past the live head", n)
	}
	if n := src.sourceReads(); n != 6 {
		t.Errorf("%d source reads for 6 demands", n)
	}
}

// TestCloseWithAheadFlights: Close with one ahead flight in service and one
// queued fails the queued one without reading it, waits the one in service
// out, and returns with no worker and no source read left running.
func TestCloseWithAheadFlights(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	src := newRecordingSource(8)
	src.gate = func(i int) {
		if i == 2 {
			close(started)
			<-release
		}
	}
	f, _ := newTestFabric(t, Config{Workers: 1})
	h := f.Open("alice", "/ds", "p", src.natoms, src)
	for _, i := range []int{0, 1} {
		if _, err := h.ReadFrameAt(i); err != nil {
			t.Fatal(err)
		}
	}
	<-started // frame 2 is in service on the one worker, frame 3 queued

	closed := make(chan struct{})
	go func() { f.Close(); close(closed) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		f.mu.Lock()
		drained := f.closed
		f.mu.Unlock()
		if drained {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Close never took the lock")
		}
		time.Sleep(time.Millisecond)
	}
	f.mu.Lock()
	queued := f.st.flights[Key{Logical: "/ds", Tag: "p", Frame: 3}]
	f.mu.Unlock()
	if queued == nil {
		t.Fatal("frame 3 was not an ahead flight")
	}
	select {
	case <-queued.done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close left the queued ahead flight pending")
	}
	if !errors.Is(queued.err, ErrClosed) {
		t.Errorf("queued ahead flight: err = %v, want ErrClosed", queued.err)
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung")
	}
	if n := src.active.Load(); n != 0 {
		t.Errorf("%d source reads still running after Close", n)
	}
	if got, want := src.frames(), []int{0, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("source asked for %v, want %v: the queued ahead flight must not be read", got, want)
	}
	if _, err := h.ReadFrameAt(4); !errors.Is(err, ErrClosed) {
		t.Errorf("read on closed fabric: err = %v, want ErrClosed", err)
	}
}
