// Package serve turns the storage node's read side from one-reader-one-cache
// into a multi-tenant serving fabric: many playback sessions multiplex over
// a single size-bounded decoded-frame cache with heat-aware admission
// (the tiering tracker's decayed byte heat decides whether an incoming frame
// may displace a resident one), deficit-round-robin fair-share dispatch (one
// bulk scan cannot starve interactive playback), and singleflight request
// coalescing (N sessions demanding the same frame trigger one decode).
// Metering a tenant's bandwidth is the storage node's job
// (rpc.Server.SetTenantQuota, adanode -tenant-rate); the fabric only orders.
//
// A session opens a Handle naming its tenant and subset; the handle
// satisfies vmd.FrameSource, so existing playback code plugs in unchanged —
// sessions become views into the shared fabric instead of owning caches.
// Cache hits bypass the scheduler entirely; misses queue as flights, and
// every flight is dispatched by the fair-share scheduler and decoded once
// regardless of how many sessions wait on it.
//
// One request path (state.lookup, state.complete) runs in two harnesses: the
// live Fabric (goroutine workers, wall clock) and Simulate (single-threaded
// discrete-event loop on a virtual clock) — the latter is what the fairness
// tests and the adaload baseline use, so latency percentiles are
// deterministic run-to-run.
package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/tier"
	"repro/internal/xtc"
)

// ErrClosed is returned for reads issued to (or stranded in) a closed
// fabric.
var ErrClosed = errors.New("serve: fabric closed")

// FrameSource is the random-access frame interface the fabric serves from
// and exposes; it matches vmd.FrameSource structurally, so serve.Handle
// plugs into vmd playback and core.SubsetRandomReader plugs into Open.
type FrameSource interface {
	Frames() int
	ReadFrameAt(i int) (*xtc.Frame, error)
}

// concurrentSource marks sources whose ReadFrameAt is safe from several
// goroutines (xtc.RandomAccessReader and readers built on it): they are
// decoded by several workers at once, others serialize behind a per-handle
// mutex.
type concurrentSource interface {
	ConcurrentFrameReads() bool
}

// Config sizes a fabric. Zero values select defaults.
type Config struct {
	// CacheBytes bounds the shared decoded-frame cache (default 256 MiB).
	CacheBytes int64
	// QuantumBytes is the DRR credit granted per scheduler visit
	// (default 1 MiB — a handful of frames).
	QuantumBytes int64
	// Now supplies the clock for admission heat (default: wall clock).
	// Simulate ignores it and drives its own event time.
	Now func() float64
	// Metrics receives serve.* instrumentation (default metrics.Default).
	Metrics *metrics.Registry
	// Workers is the number of live decode dispatchers (default
	// xtc.DefaultWorkers). Unused by Simulate.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.CacheBytes <= 0 {
		c.CacheBytes = 256 << 20
	}
	if c.QuantumBytes <= 0 {
		c.QuantumBytes = 1 << 20
	}
	if c.Metrics == nil {
		c.Metrics = metrics.Default
	}
	if c.Now == nil {
		c.Now = tier.WallClock()
	}
	c.Workers = xtc.DefaultWorkers(c.Workers)
	return c
}

// tenantMetrics are the per-tenant handles a Handle caches at Open.
type tenantMetrics struct {
	requests *metrics.Counter
	readNS   *metrics.Histogram
}

func newTenantMetrics(reg *metrics.Registry, tenant string) tenantMetrics {
	return tenantMetrics{
		requests: reg.Counter(fmt.Sprintf("serve.tenant.%s.requests", tenant)),
		readNS:   reg.Histogram(fmt.Sprintf("serve.tenant.%s.read_ns", tenant)),
	}
}

// Fabric is the live multi-tenant serving layer. Open handles, read frames
// through them from any number of goroutines, Close when done.
type Fabric struct {
	reg *metrics.Registry

	mu     sync.Mutex
	cond   *sync.Cond // wakes workers on submit and on close
	st     state
	closed bool
	wg     sync.WaitGroup
}

// New starts a fabric with cfg.Workers decode dispatchers.
func New(cfg Config) *Fabric {
	cfg = cfg.withDefaults()
	f := &Fabric{reg: cfg.Metrics, st: newState(cfg, cfg.Now)}
	f.cond = sync.NewCond(&f.mu)
	for w := 0; w < cfg.Workers; w++ {
		f.wg.Add(1)
		go f.worker()
	}
	return f
}

// Close fails every queued flight with ErrClosed, stops the workers, and
// waits for in-progress decodes to finish. Idempotent. The failed flights
// stay in the flight table: a closed fabric refuses every read before the
// lookup, so nothing consults it again.
func (f *Fabric) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	for _, fl := range f.st.sched.drain() {
		fl.err = ErrClosed
		close(fl.done)
	}
	f.cond.Broadcast()
	f.mu.Unlock()
	f.wg.Wait()
}

// Open returns a tenant's handle onto one subset of one dataset. natoms
// sizes the subset's frames — the unit of fair-share and admission accounting.
// The handle satisfies vmd.FrameSource and is safe for concurrent use.
func (f *Fabric) Open(tenant, logical, tag string, natoms int, src FrameSource) *Handle {
	h := &Handle{
		f:        f,
		tenant:   tenant,
		logical:  logical,
		tag:      tag,
		dropping: droppingPrefix + tag,
		cost:     xtc.RawFrameSize(natoms),
		src:      src,
		tm:       newTenantMetrics(f.reg, tenant),
	}
	if cs, ok := src.(concurrentSource); !ok || !cs.ConcurrentFrameReads() {
		h.srcMu = &sync.Mutex{}
	}
	return h
}

// Handle is one tenant's view into the fabric: a FrameSource whose reads go
// through the shared cache, the fair-share scheduler, and coalescing.
type Handle struct {
	f        *Fabric
	tenant   string
	logical  string
	tag      string
	dropping string // the subset's heat name, built once
	cost     int64
	src      FrameSource
	srcMu    *sync.Mutex
	tm       tenantMetrics
}

// Frames returns the underlying source's frame count. For a live source
// this is the current head — it extends as the producer publishes, and
// frames cached before a head advance stay valid because published
// prefixes are immutable.
func (h *Handle) Frames() int { return h.src.Frames() }

// liveSource marks sources over a still-growing dataset (stream.Source,
// core.LiveReader), whose ReadFrameAt(head) blocks until the producer
// publishes that frame.
type liveSource interface {
	Live() bool
}

// Live reports whether the handle serves a still-growing live dataset. It
// flips to false once the producer seals.
func (h *Handle) Live() bool {
	if ls, ok := h.src.(liveSource); ok {
		return ls.Live()
	}
	return false
}

// Tenant returns the handle's tenant name.
func (h *Handle) Tenant() string { return h.tenant }

// read decodes one frame from the handle's source, serialized when the
// source does not support concurrent reads.
func (h *Handle) read(i int) (*xtc.Frame, error) {
	if h.srcMu != nil {
		h.srcMu.Lock()
		defer h.srcMu.Unlock()
	}
	return h.src.ReadFrameAt(i)
}

// ReadFrameAt returns frame i through the fabric: a cache hit is immediate;
// a miss waits for the flight the lookup attached it to or submitted.
func (h *Handle) ReadFrameAt(i int) (*xtc.Frame, error) {
	f := h.f
	start := time.Now()
	h.tm.requests.Inc()

	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, ErrClosed
	}
	fr, fl, submitted := f.st.lookup(Key{Logical: h.logical, Tag: h.tag, Frame: i}, h.dropping, h.tenant, h.cost)
	if submitted {
		fl.h, fl.done = h, make(chan struct{})
		f.cond.Signal()
	}
	f.mu.Unlock()

	var err error
	if fl != nil {
		<-fl.done
		fr, err = fl.frame, fl.err
	}
	h.tm.readNS.Observe(time.Since(start).Nanoseconds())
	return fr, err
}

// worker is one decode dispatcher: it pulls flights off the fair-share
// scheduler, decodes them, completes them (feeding the cache through
// admission), and wakes every coalesced waiter.
func (f *Fabric) worker() {
	defer f.wg.Done()
	for {
		f.mu.Lock()
		fl := f.st.sched.next()
		for fl == nil && !f.closed {
			f.cond.Wait()
			fl = f.st.sched.next()
		}
		f.mu.Unlock()
		if fl == nil {
			return
		}

		frame, err := fl.h.read(fl.key.Frame)

		f.mu.Lock()
		f.st.complete(fl, frame, err)
		f.mu.Unlock()
		close(fl.done)
	}
}
