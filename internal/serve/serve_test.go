package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
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

func TestTokenBucket(t *testing.T) {
	b := newTokenBucket(100, 200) // 100 B/s, burst 200
	if at := b.eligibleAt(0, 150); at != 0 {
		t.Errorf("full bucket eligibleAt = %v, want 0", at)
	}
	b.take(150)
	if at := b.eligibleAt(0, 100); at != 0.5 {
		t.Errorf("eligibleAt after drain = %v, want 0.5 (50 short at 100 B/s)", at)
	}
	// Oversized requests become eligible at a full bucket, not never.
	b2 := newTokenBucket(100, 200)
	b2.take(200)
	if at := b2.eligibleAt(0, 1000); at != 2 {
		t.Errorf("oversized eligibleAt = %v, want 2 (refill to burst)", at)
	}
	// Unmetered bucket is always eligible.
	b3 := newTokenBucket(0, 0)
	if at := b3.eligibleAt(5, 1<<40); at != 5 {
		t.Errorf("unmetered eligibleAt = %v, want now", at)
	}
}

// TestSchedulerDRRAlternates: equal-cost tenants are served strictly
// round-robin.
func TestSchedulerDRRAlternates(t *testing.T) {
	s := newScheduler(100, 0, 0)
	for i := 0; i < 4; i++ {
		s.submit(&flight{tenant: "a", cost: 100})
		s.submit(&flight{tenant: "b", cost: 100})
	}
	var order []string
	for {
		fl, _, _ := s.next(0)
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
	s := newScheduler(quantum, 0, 0)
	for i := 0; i < 30; i++ {
		s.submit(&flight{tenant: "small", cost: 100})
	}
	for i := 0; i < 10; i++ {
		s.submit(&flight{tenant: "big", cost: 300})
	}
	bytes := map[string]int64{}
	for dispatched := 0; dispatched < 20; dispatched++ {
		fl, _, _ := s.next(0)
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
	s := newScheduler(100, 0, 0)
	s.submit(&flight{tenant: "a", cost: 1000})
	fl, _, _ := s.next(0)
	if fl == nil || fl.cost != 1000 {
		t.Fatalf("oversized head not dispatched: %+v", fl)
	}
}

// TestSchedulerQuotaThrottle: an over-quota tenant's head reports a finite
// notBefore and dispatches once the bucket refills.
func TestSchedulerQuotaThrottle(t *testing.T) {
	s := newScheduler(1000, 100, 100) // 100 B/s, burst 100
	s.submit(&flight{tenant: "a", cost: 100})
	fl, _, _ := s.next(0)
	if fl == nil {
		t.Fatal("burst should cover the first request")
	}
	s.submit(&flight{tenant: "a", cost: 100})
	fl, notBefore, queued := s.next(0)
	if fl != nil {
		t.Fatal("second request dispatched with an empty bucket")
	}
	if queued != 1 || notBefore != 1 {
		t.Errorf("notBefore = %v queued = %d, want 1s refill and 1 queued", notBefore, queued)
	}
	if fl, _, _ = s.next(notBefore); fl == nil {
		t.Error("request still throttled after the bucket refilled")
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

// TestFabricServesAndCaches: reads come back with the right content, repeat
// reads hit the shared cache without touching the source, and a second
// tenant's handle shares the same residency.
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
	decodes := src.reads.Load()
	h2 := f.Open("bob", "/ds", "p", src.natoms, src)
	for i := 0; i < 8; i++ {
		if _, err := h2.ReadFrameAt(i); err != nil {
			t.Fatal(err)
		}
	}
	if got := src.reads.Load(); got != decodes {
		t.Errorf("second tenant re-decoded: %d source reads, want %d", got, decodes)
	}
	snap := reg.Snapshot()
	if snap.Counters["serve.cache.hits"] != 8 || snap.Counters["serve.decodes"] != 8 {
		t.Errorf("hits=%d decodes=%d, want 8/8",
			snap.Counters["serve.cache.hits"], snap.Counters["serve.decodes"])
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

// TestFabricQuotaThrottlesLiveReads: with a tight per-tenant quota a burst
// of misses takes at least the token-refill time.
func TestFabricQuotaThrottlesLiveReads(t *testing.T) {
	src := &stubSource{frames: 8, natoms: 1000}
	cost := xtc.RawFrameSize(1000)
	// Burst covers one frame; refilling for each further frame takes
	// cost/rate = 20ms.
	f, _ := newTestFabric(t, Config{Workers: 1, RateBps: float64(cost) * 50, BurstBytes: cost})
	h := f.Open("alice", "/ds", "p", 1000, src)
	start := time.Now()
	for i := 0; i < 4; i++ {
		if _, err := h.ReadFrameAt(i); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Errorf("4 misses at 1 frame/20ms quota finished in %v, want >= 50ms", elapsed)
	}
}
