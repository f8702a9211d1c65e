package core

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/plfs"
	"repro/internal/vfs"
	"repro/internal/xtc"
)

// headGate is a backend on which, once armed, the next rename onto
// live.json — the last op of a head's puts — fails with fail when that is
// set, and otherwise announces itself on reached and parks until release
// is closed.
type headGate struct {
	vfs.FS
	armed            atomic.Bool
	fail             error
	reached, release chan struct{}
}

func (g *headGate) Rename(oldname, newname string) error {
	if strings.HasSuffix(newname, "/"+liveHeadName) && g.armed.CompareAndSwap(true, false) {
		if g.fail != nil {
			return g.fail
		}
		close(g.reached)
		<-g.release
	}
	return g.FS.Rename(oldname, newname)
}

// closeCounter counts the Close calls of the files it hands out, which
// vfs.Instrument does not meter.
type closeCounter struct {
	vfs.FS
	n *atomic.Int64
}

type countedClose struct {
	vfs.File
	n *atomic.Int64
}

func (c countedClose) Close() error { c.n.Add(1); return c.File.Close() }

func (c closeCounter) wrap(f vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return countedClose{f, c.n}, nil
}

func (c closeCounter) Create(name string) (vfs.File, error) { return c.wrap(c.FS.Create(name)) }
func (c closeCounter) Open(name string) (vfs.File, error)   { return c.wrap(c.FS.Open(name)) }

// gatedSession is a live session whose head puts go through a headGate on
// metered backends, plus a tailer on its own unmetered stack.
type gatedSession struct {
	reg     *metrics.Registry
	closes  atomic.Int64
	gate    *headGate
	a, tail *ADA
	li      *LiveIngest
	pdb     []byte
	batches [][]byte // five frames each
}

func newGatedSession(t *testing.T, batches int) *gatedSession {
	t.Helper()
	pdbBytes, traj, _ := testDataset(t, 200, 5*batches)
	ssd, hdd := vfs.NewMemFS(), vfs.NewMemFS()
	s := &gatedSession{reg: metrics.NewRegistry(), pdb: pdbBytes, batches: batchFrames(splitFrames(t, traj), 5)}
	s.gate = &headGate{FS: closeCounter{vfs.Instrument(ssd, s.reg, "fs.ssd"), &s.closes},
		reached: make(chan struct{}), release: make(chan struct{})}
	store, err := plfs.New(
		plfs.Backend{Name: "ssd", FS: s.gate, Mount: "/mnt1"},
		plfs.Backend{Name: "hdd", FS: closeCounter{vfs.Instrument(hdd, s.reg, "fs.hdd"), &s.closes}, Mount: "/mnt2"},
	)
	if err != nil {
		t.Fatal(err)
	}
	s.a, s.tail = New(store, nil, Options{Metrics: s.reg}), rebootADA(t, ssd, hdd)
	if s.li, err = s.a.OpenLiveIngest("/ds", pdbBytes); err != nil {
		t.Fatal(err)
	}
	return s
}

// ops counts the backend ops the session has issued: what vfs.Instrument
// meters, plus file closes.
func (s *gatedSession) ops() int64 { return backendOps(s.reg) + s.closes.Load() }

// appendParked appends batch with the gate armed to park, and returns once
// Append has returned with its head's last put still parked.
func (s *gatedSession) appendParked(t *testing.T, batch []byte) {
	t.Helper()
	s.gate.armed.Store(true)
	done := make(chan error, 1)
	go func() {
		_, err := s.li.Append(batch)
		done <- err
	}()
	<-s.gate.reached
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Append did not return while its head was landing")
	}
	if h, err := s.tail.LiveHead("/ds"); err != nil || h.Version != 1 || h.Frames != 0 {
		t.Fatalf("head while the put is parked = %+v, %v; want the opening head", h, err)
	}
}

// TestLiveAppendReturnsWhileHeadLands: Append returns once its batch is
// checkpointed, with the head's put still in flight; the next Append
// decodes its batch meanwhile but issues no backend op until that put has
// landed, so the backends see the ops of an Append that published in line.
func TestLiveAppendReturnsWhileHeadLands(t *testing.T) {
	s := newGatedSession(t, 2)
	defer s.li.Abort()
	s.appendParked(t, s.batches[0])

	decoded := func() int64 { return s.reg.Snapshot().Counters["xtc.decode.frames"] }
	frames, ops := decoded(), s.ops()
	next := make(chan error, 1)
	go func() {
		_, err := s.li.Append(s.batches[1])
		next <- err
	}()
	for deadline := time.Now().Add(10 * time.Second); decoded() == frames; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("the next Append decoded nothing while the head was landing")
		}
	}
	time.Sleep(5 * time.Millisecond) // room for an op that should not come
	if got := s.ops() - ops; got != 0 {
		t.Fatalf("the next Append issued %d backend ops before the head landed", got)
	}
	select {
	case err := <-next:
		t.Fatalf("the next Append returned (%v) before the head landed", err)
	default:
	}
	close(s.gate.release)
	if err := <-next; err != nil {
		t.Fatal(err)
	}
	if h := waitHead(t, s.tail, "/ds", 3); h.Version != 3 || h.Frames != 10 {
		t.Fatalf("head after two appends = %+v, want version 3 with 10 frames", h)
	}
}

// TestLiveFailedHeadPutIsSticky: a head put that fails in the background
// fails the session. The next Append, or Seal, returns its error, and every
// call after returns the same one; the published head stays where it was.
// The batch itself was durable when Append returned, so a resume continues
// from it and seals to the one-shot container.
func TestLiveFailedHeadPutIsSticky(t *testing.T) {
	errPut := errors.New("head put refused")
	for _, next := range []string{"Append", "Seal"} {
		t.Run(next, func(t *testing.T) {
			s := newGatedSession(t, 3)
			s.gate.fail = errPut
			s.gate.armed.Store(true)
			if n, err := s.li.Append(s.batches[0]); err != nil || n != 5 {
				t.Fatalf("append whose head put fails in the background = %d, %v; want 5, nil", n, err)
			}
			var err error
			if next == "Append" {
				var n int
				if n, err = s.li.Append(s.batches[1]); n != 0 {
					t.Fatalf("append after the failed put took %d frames", n)
				}
			} else {
				_, err = s.li.Seal()
			}
			if !errors.Is(err, errPut) {
				t.Fatalf("%s after the failed put = %v, want %v", next, err, errPut)
			}
			if n, again := s.li.Append(s.batches[1]); again != err || n != 0 {
				t.Fatalf("append after that = %d, %v; want the first error", n, again)
			}
			if _, again := s.li.Seal(); again != err {
				t.Fatalf("seal after that = %v; want the first error", again)
			}
			if h, err := s.tail.LiveHead("/ds"); err != nil || h.Version != 1 || h.Frames != 0 {
				t.Fatalf("head after the failed put = %+v, %v; want the opening head", h, err)
			}

			li, err := s.tail.ResumeLiveIngest("/ds", s.pdb)
			if err != nil {
				t.Fatal(err)
			}
			if li.Frames() != 5 {
				t.Fatalf("resumed at frame %d, want the appended batch's 5", li.Frames())
			}
			for _, b := range s.batches[1:] {
				if _, err := li.Append(b); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := li.Seal(); err != nil {
				t.Fatal(err)
			}
			_, goldenBytes := goldenDroppings(t, s.pdb, concat(s.batches))
			assertGolden(t, s.tail, goldenBytes, "resumed after a failed head put")
		})
	}
}

// concat joins byte slices.
func concat(parts [][]byte) []byte {
	var out []byte
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// TestLiveEndWithHeadInFlight: Abort and Seal called while a head put is
// parked wait for it before their first backend op, and leave nothing
// behind: no goroutine of the session's, and nothing reading the batch the
// caller owns again — the test overwrites it while the put is parked, which
// -race reports if a decoder still reads it.
func TestLiveEndWithHeadInFlight(t *testing.T) {
	for _, end := range []string{"Abort", "Seal"} {
		t.Run(end, func(t *testing.T) {
			base := runtime.NumGoroutine()
			s := newGatedSession(t, 1)
			batch := append([]byte(nil), s.batches[0]...)
			s.appendParked(t, batch)
			for i := range batch {
				batch[i] = 0xff
			}
			ops := s.ops()
			done := make(chan error, 1)
			go func() {
				if end == "Abort" {
					done <- s.li.Abort()
				} else {
					_, err := s.li.Seal()
					done <- err
				}
			}()
			select {
			case err := <-done:
				t.Fatalf("%s returned (%v) with the head still landing", end, err)
			case <-time.After(20 * time.Millisecond):
			}
			if got := s.ops() - ops; got != 0 {
				t.Fatalf("%s issued %d backend ops with the head still landing", end, got)
			}
			close(s.gate.release)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if end == "Abort" {
				if names, err := s.tail.Datasets(); err != nil || len(names) != 0 {
					t.Fatalf("datasets after abort = %v, %v", names, err)
				}
			} else if h, err := s.tail.LiveHead("/ds"); err != nil || !h.Sealed || h.Frames != 5 {
				t.Fatalf("head after seal = %+v, %v; want sealed with 5 frames", h, err)
			}
			for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after %s, %d before the session", runtime.NumGoroutine(), end, base)
				}
			}
		})
	}
}

// TestLiveAppendReusesFrames: a session's batches decode into the frames
// earlier batches wrote out and handed back. Every frame on the recycle
// list after one Append is still there, coordinates and all, after the
// next, and the list never holds more than a batch's worth: a session of
// twelve five-frame batches allocates at most five frames, and an Append
// that finds five on the list allocates none.
func TestLiveAppendReusesFrames(t *testing.T) {
	const batch = 5
	pdbBytes, traj, _ := testDataset(t, 200, 12*batch)
	a, _, _ := newADA(t, nil, Options{Metrics: metrics.NewRegistry()})
	li, err := a.OpenLiveIngest("/ds", pdbBytes)
	if err != nil {
		t.Fatal(err)
	}
	defer li.Abort()
	// recycled lists the frames on the session's recycle list, each with its
	// coordinates' backing array.
	recycled := func() map[*xtc.Frame]*xtc.Vec3 {
		out := map[*xtc.Frame]*xtc.Vec3{}
		for n := len(li.free); n > 0; n-- {
			f := <-li.free
			out[f] = &f.Coords[0]
			li.free <- f
		}
		return out
	}
	var prev map[*xtc.Frame]*xtc.Vec3
	for i, b := range batchFrames(splitFrames(t, traj), batch) {
		if n, err := li.Append(b); err != nil || n != batch {
			t.Fatalf("append %d = %d, %v", i, n, err)
		}
		got := recycled()
		if len(got) == 0 || len(got) > batch {
			t.Fatalf("after append %d the recycle list holds %d frames, want 1 to %d", i, len(got), batch)
		}
		for f, coords := range prev {
			if got[f] != coords {
				t.Fatalf("append %d dropped or reallocated a recycled frame", i)
			}
		}
		if len(prev) == batch && len(got) != batch {
			t.Fatalf("append %d allocated %d frames with %d on the list", i, len(got)-batch, batch)
		}
		prev = got
	}
}
