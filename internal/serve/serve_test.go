package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/metrics"
	"repro/internal/tier"
	"repro/internal/xtc"
)

// stubSource is a synthetic FrameSource whose frames carry their index in
// Step, with an optional per-read gate for interleaving control.
type stubSource struct {
	frames int
	natoms int
	gate   func(i int)
	reads  atomic.Int64
}

func (s *stubSource) Frames() int                { return s.frames }
func (s *stubSource) ConcurrentFrameReads() bool { return true }

func (s *stubSource) ReadFrameAt(i int) (*xtc.Frame, error) {
	s.reads.Add(1)
	if s.gate != nil {
		s.gate(i)
	}
	return &xtc.Frame{Step: int32(i), Coords: make([]xtc.Vec3, s.natoms)}, nil
}

// TestSchedulerDRRAlternates: equal-cost tenants are served strictly
// round-robin.
func TestSchedulerDRRAlternates(t *testing.T) {
	s := newScheduler(100)
	for i := 0; i < 4; i++ {
		s.submit(&flight{tenant: "a", cost: 100})
		s.submit(&flight{tenant: "b", cost: 100})
	}
	var order []string
	for {
		fl := s.next()
		if fl == nil {
			break
		}
		order = append(order, fl.tenant)
	}
	want := []string{"a", "b", "a", "b", "a", "b", "a", "b"}
	if len(order) != len(want) {
		t.Fatalf("dispatched %d flights, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v", order, want)
		}
	}
}

// TestSchedulerDRRByteFair: with unequal request sizes the served *bytes*
// per tenant stay balanced, not the request counts — a bulk tenant's big
// frames cost it turns.
func TestSchedulerDRRByteFair(t *testing.T) {
	const quantum = 100
	s := newScheduler(quantum)
	for i := 0; i < 30; i++ {
		s.submit(&flight{tenant: "small", cost: 100})
	}
	for i := 0; i < 10; i++ {
		s.submit(&flight{tenant: "big", cost: 300})
	}
	bytes := map[string]int64{}
	for dispatched := 0; dispatched < 20; dispatched++ {
		fl := s.next()
		if fl == nil {
			t.Fatalf("scheduler stalled after %d dispatches", dispatched)
		}
		bytes[fl.tenant] += fl.cost
	}
	diff := bytes["small"] - bytes["big"]
	if diff < 0 {
		diff = -diff
	}
	// Byte shares may diverge by at most one max-size request plus one
	// quantum of carried credit.
	if limit := int64(300 + quantum); diff > limit {
		t.Errorf("served bytes small=%d big=%d, diverge by %d > %d",
			bytes["small"], bytes["big"], diff, limit)
	}
}

// TestSchedulerLargeHeadAccumulates: a request bigger than the quantum is
// served after enough visits instead of starving.
func TestSchedulerLargeHeadAccumulates(t *testing.T) {
	s := newScheduler(100)
	s.submit(&flight{tenant: "a", cost: 1000})
	fl := s.next()
	if fl == nil || fl.cost != 1000 {
		t.Fatalf("oversized head not dispatched: %+v", fl)
	}
}

// TestSchedulerAlwaysDispatches checks, over random tenants, costs, quanta
// and submit/dispatch interleavings, the contract the worker and Simulate
// rely on: while anything is queued, next dispatches a flight — the oldest
// of its tenant — and returns nil only on an empty queue. Tenants backlogged
// from the first dispatch and never drained keep the byte-share bound of
// TestSchedulerDRRByteFair: served bytes diverge by at most one max-size
// request plus one quantum.
func TestSchedulerAlwaysDispatches(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		quantum := 1 + rng.Int63n(1000)
		tenants := 1 + rng.Intn(6)
		var maxCost int64
		s := newScheduler(quantum)
		queued := map[string][]*flight{}
		pending := 0
		submit := func(tenant string) {
			fl := &flight{tenant: tenant, cost: 1 + rng.Int63n(2000)}
			maxCost = max(maxCost, fl.cost)
			s.submit(fl)
			queued[tenant] = append(queued[tenant], fl)
			pending++
		}
		// Every tenant starts backlogged, with zero credit.
		backlogged := map[string]bool{}
		for n := 0; n < tenants; n++ {
			name := fmt.Sprintf("t%d", n)
			backlogged[name] = true
			for k := 1 + rng.Intn(8); k > 0; k-- {
				submit(name)
			}
		}
		served := map[string]int64{}
		for step := 0; step < 400; step++ {
			if rng.Intn(3) == 0 {
				submit(fmt.Sprintf("t%d", rng.Intn(tenants+2))) // sometimes a newcomer
				continue
			}
			fl := s.next()
			if pending == 0 {
				if fl != nil {
					t.Logf("seed %d: dispatched %+v from an empty queue", seed, fl)
					return false
				}
				continue
			}
			if fl == nil {
				t.Logf("seed %d step %d: %d queued, nothing dispatched", seed, step, pending)
				return false
			}
			if q := queued[fl.tenant]; len(q) == 0 || q[0] != fl {
				t.Logf("seed %d: tenant %s served out of order", seed, fl.tenant)
				return false
			}
			queued[fl.tenant] = queued[fl.tenant][1:]
			pending--
			if len(queued[fl.tenant]) == 0 {
				delete(backlogged, fl.tenant) // a drained tenant forfeits its credit
			}
			served[fl.tenant] += fl.cost
			for a := range backlogged {
				for b := range backlogged {
					if d := served[a] - served[b]; d > maxCost+quantum {
						t.Logf("seed %d: %s served %d bytes, %s %d: diverge by %d > %d + %d",
							seed, a, served[a], b, served[b], d, maxCost, quantum)
						return false
					}
				}
			}
		}
		for ; pending > 0; pending-- {
			if s.next() == nil {
				t.Logf("seed %d: %d flights stranded", seed, pending)
				return false
			}
		}
		return s.next() == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestCacheAdmissionHeat: a cold subset's frame cannot displace a hotter
// subset's resident frames; once the newcomer outheats them it can.
func TestCacheAdmissionHeat(t *testing.T) {
	now := 0.0
	tr := tier.NewTracker(func() float64 { return now }, 0)
	c := xtc.FrameLRU[Key]{Budget: 200}
	hot := func(k Key) float64 { return tr.Heat(k.Logical, k.dropping()) }
	evictOK := func(incoming Key) func(Key) bool {
		return func(victim Key) bool { return hot(victim) <= hot(incoming) }
	}

	tr.Record("/a", "subset.p", 1000)
	a0, a1 := Key{"/a", "p", 0}, Key{"/a", "p", 1}
	for _, k := range []Key{a0, a1} {
		if ok, _ := c.Admit(k, nil, 100, evictOK(k)); !ok {
			t.Fatalf("admit %v into empty space failed", k)
		}
	}
	// Cold newcomer: /b has a tenth of /a's heat, so it must be rejected.
	tr.Record("/b", "subset.p", 100)
	b0 := Key{"/b", "p", 0}
	if ok, _ := c.Admit(b0, nil, 100, evictOK(b0)); ok {
		t.Fatal("cold subset displaced a hot one")
	}
	if _, ok := c.Get(a0); !ok {
		t.Fatal("rejected admission evicted the resident frame")
	}
	// Heat /b past /a: now it earns residency.
	tr.Record("/b", "subset.p", 10000)
	if ok, evicted := c.Admit(b0, nil, 100, evictOK(b0)); !ok || evicted != 1 {
		t.Fatalf("hot newcomer: admitted=%v evicted=%d, want true/1", ok, evicted)
	}
	if c.Len() != 2 || c.Used() != 200 {
		t.Errorf("cache holds %d frames / %d bytes, want 2 / 200", c.Len(), c.Used())
	}
}

func newTestFabric(t *testing.T, cfg Config) (*Fabric, *metrics.Registry) {
	t.Helper()
	reg := metrics.NewRegistry()
	cfg.Metrics = reg
	f := New(cfg)
	t.Cleanup(f.Close)
	return f, reg
}

// waitIdle returns once the fabric has no flight queued or in service, so
// every ahead flight a test's reads set off has completed.
func waitIdle(t *testing.T, f *Fabric) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		f.mu.Lock()
		busy := len(f.st.flights)
		f.mu.Unlock()
		if busy == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("fabric still has %d flights", busy)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFabricServesAndCaches: reads come back with the right content, repeat
// reads hit the shared cache without touching the source, and a second
// tenant's handle shares the same residency. The first tenant's sequential
// reads also read two frames past the last one it asked for.
func TestFabricServesAndCaches(t *testing.T) {
	src := &stubSource{frames: 16, natoms: 10}
	f, reg := newTestFabric(t, Config{Workers: 2})
	h := f.Open("alice", "/ds", "p", src.natoms, src)
	for i := 0; i < 8; i++ {
		fr, err := h.ReadFrameAt(i)
		if err != nil {
			t.Fatal(err)
		}
		if int(fr.Step) != i {
			t.Fatalf("frame %d came back as step %d", i, fr.Step)
		}
	}
	waitIdle(t, f)
	decodes := src.reads.Load()
	before := reg.Snapshot().Counters
	if decodes != 8+aheadDepth || before["serve.decodes"] != decodes {
		t.Errorf("%d source reads, %d decodes counted, want %d: each frame once, and %d ahead",
			decodes, before["serve.decodes"], 8+aheadDepth, aheadDepth)
	}
	h2 := f.Open("bob", "/ds", "p", src.natoms, src)
	for i := 0; i < 8; i++ {
		if _, err := h2.ReadFrameAt(i); err != nil {
			t.Fatal(err)
		}
	}
	waitIdle(t, f)
	if got := src.reads.Load(); got != decodes {
		t.Errorf("second tenant re-decoded: %d source reads, want %d", got, decodes)
	}
	snap := reg.Snapshot()
	if hits := snap.Counters["serve.cache.hits"] - before["serve.cache.hits"]; hits != 8 {
		t.Errorf("second tenant hit %d times, want 8", hits)
	}
	c := snap.Counters
	if c["serve.requests"]+c["serve.ahead"] != c["serve.cache.hits"]+c["serve.decodes"]+c["serve.coalesced"] {
		t.Errorf("requests %d + ahead %d != hits %d + decodes %d + coalesced %d", c["serve.requests"],
			c["serve.ahead"], c["serve.cache.hits"], c["serve.decodes"], c["serve.coalesced"])
	}
	if snap.Counters["serve.tenant.alice.requests"] != 8 ||
		snap.Counters["serve.tenant.bob.requests"] != 8 {
		t.Error("per-tenant request counters missing")
	}
	if reg.Snapshot().Histograms["serve.tenant.alice.read_ns"].Count != 8 {
		t.Error("per-tenant latency histogram missing samples")
	}
}

// TestFabricCoalesces: N concurrent demands for the same uncached frame run
// one decode; the rest attach to the in-flight one. Meaningful under -race.
func TestFabricCoalesces(t *testing.T) {
	const demands = 8
	release := make(chan struct{})
	var gated sync.Once
	started := make(chan struct{})
	src := &stubSource{frames: 4, natoms: 10, gate: func(i int) {
		gated.Do(func() { close(started); <-release })
	}}
	f, reg := newTestFabric(t, Config{Workers: 2})
	h := f.Open("alice", "/ds", "p", src.natoms, src)

	var wg sync.WaitGroup
	errs := make([]error, demands)
	for d := 0; d < demands; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			fr, err := h.ReadFrameAt(3)
			if err == nil && fr.Step != 3 {
				err = errors.New("wrong frame")
			}
			errs[d] = err
		}(d)
	}
	<-started // the first demand's decode is in progress; the rest pile on
	// Wait until every other demand has either attached to the flight or
	// been counted — they cannot finish while the decode is gated.
	deadline := time.Now().Add(10 * time.Second)
	for reg.Snapshot().Counters["serve.coalesced"] < demands-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d demands coalesced", reg.Snapshot().Counters["serve.coalesced"])
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	for d, err := range errs {
		if err != nil {
			t.Fatalf("demand %d: %v", d, err)
		}
	}
	if got := src.reads.Load(); got != 1 {
		t.Errorf("%d source decodes for %d same-frame demands, want 1", got, demands)
	}
	snap := reg.Snapshot()
	if snap.Counters["serve.decodes"] != 1 || snap.Counters["serve.coalesced"] != demands-1 {
		t.Errorf("decodes=%d coalesced=%d, want 1/%d",
			snap.Counters["serve.decodes"], snap.Counters["serve.coalesced"], demands-1)
	}
}

// TestFabricCloseFailsQueued: Close fails flights still waiting in the
// scheduler with ErrClosed while letting the in-progress decode finish.
func TestFabricCloseFailsQueued(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	var gated sync.Once
	src := &stubSource{frames: 4, natoms: 10, gate: func(i int) {
		gated.Do(func() { close(started); <-release })
	}}
	reg := metrics.NewRegistry()
	f := New(Config{Workers: 1, Metrics: reg})
	h := f.Open("alice", "/ds", "p", src.natoms, src)

	first := make(chan error, 1)
	go func() {
		_, err := h.ReadFrameAt(0)
		first <- err
	}()
	<-started
	queued := make(chan error, 1)
	go func() {
		_, err := h.ReadFrameAt(1) // single worker is busy: this one queues
		queued <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for reg.Snapshot().Counters["serve.cache.misses"] < 2 {
		if time.Now().After(deadline) {
			t.Fatal("second demand never issued")
		}
		time.Sleep(time.Millisecond)
	}

	done := make(chan struct{})
	go func() { f.Close(); close(done) }()
	if err := <-queued; !errors.Is(err, ErrClosed) {
		t.Errorf("queued read after Close: err = %v, want ErrClosed", err)
	}
	close(release)
	if err := <-first; err != nil {
		t.Errorf("in-progress decode failed on Close: %v", err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung")
	}
	if _, err := h.ReadFrameAt(2); !errors.Is(err, ErrClosed) {
		t.Errorf("read on closed fabric: err = %v, want ErrClosed", err)
	}
}
