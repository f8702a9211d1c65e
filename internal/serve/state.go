package serve

import (
	"repro/internal/metrics"
	"repro/internal/tier"
	"repro/internal/xtc"
)

// Key names one decoded frame in the shared cache: a dataset, a tagged
// subset of it, and a frame number.
type Key struct {
	Logical string
	Tag     string
	Frame   int
}

// droppingPrefix matches core's subset dropping naming, so serve-side heat
// shares a namespace with the tiering tracker's.
const droppingPrefix = "subset."

func (k Key) dropping() string { return droppingPrefix + k.Tag }

// flight is one in-progress decode: the unit of scheduling and of
// coalescing. Every session demanding its key between submit and completion
// attaches to the same flight; the first demander's tenant pays for it.
type flight struct {
	key    Key
	tenant string
	cost   int64
	h      *Handle
	done   chan struct{}
	frame  *xtc.Frame
	err    error
}

// serveMetrics is the fabric's serve.* instrumentation set.
type serveMetrics struct {
	requests  *metrics.Counter
	hits      *metrics.Counter
	misses    *metrics.Counter
	evictions *metrics.Counter
	rejected  *metrics.Counter
	decodes   *metrics.Counter
	coalesced *metrics.Counter
	throttled *metrics.Counter
	bytes     *metrics.Gauge
	queueHWM  *metrics.Gauge
}

func newServeMetrics(reg *metrics.Registry) serveMetrics {
	return serveMetrics{
		requests:  reg.Counter("serve.requests"),
		hits:      reg.Counter("serve.cache.hits"),
		misses:    reg.Counter("serve.cache.misses"),
		evictions: reg.Counter("serve.cache.evictions"),
		rejected:  reg.Counter("serve.cache.rejected"),
		decodes:   reg.Counter("serve.decodes"),
		coalesced: reg.Counter("serve.coalesced"),
		throttled: reg.Counter("serve.throttled"),
		bytes:     reg.Gauge("serve.cache.bytes"),
		queueHWM:  reg.Gauge("serve.queue_depth_hwm"),
	}
}

// state is the fabric's request path, written once for both harnesses: what
// is resident, what is in flight, what is queued, how hot each subset is,
// and the serve.* counters that record it. Both methods run under the
// caller's lock — Fabric's mutex, or Simulate's single thread.
type state struct {
	cache   xtc.FrameLRU[Key]
	flights map[Key]*flight
	sched   *scheduler
	heat    *tier.Tracker
	sm      serveMetrics
}

func newState(cfg Config, now func() float64) state {
	return state{
		cache:   xtc.FrameLRU[Key]{Budget: cfg.CacheBytes},
		flights: map[Key]*flight{},
		sched:   newScheduler(cfg.QuantumBytes, cfg.RateBps, cfg.BurstBytes),
		heat:    tier.NewTracker(now, cfg.HeatHalfLife),
		sm:      newServeMetrics(cfg.Metrics),
	}
}

// lookup records the demand as heat and resolves it one of three ways: a
// cache hit (the frame, nil flight), an attach to the in-flight decode of
// the same key (coalesced — counted once as a decode, however many wait),
// or a new flight submitted to the fair-share scheduler (submitted = true;
// the caller wakes whatever dispatches). dropping is k.dropping(), built
// once by the caller so a hit allocates nothing.
func (s *state) lookup(k Key, dropping, tenant string, cost int64) (fr *xtc.Frame, fl *flight, submitted bool) {
	s.heat.Record(k.Logical, dropping, cost)
	s.sm.requests.Inc()
	if fr, ok := s.cache.Get(k); ok {
		s.sm.hits.Inc()
		return fr, nil, false
	}
	s.sm.misses.Inc()
	if fl, ok := s.flights[k]; ok {
		s.sm.coalesced.Inc()
		return nil, fl, false
	}
	fl = &flight{key: k, tenant: tenant, cost: cost}
	s.flights[k] = fl
	s.sched.submit(fl)
	s.sm.queueHWM.SetMax(int64(s.sched.pending))
	return nil, fl, true
}

// complete publishes a dispatched flight's outcome on the flight and, for a
// successful decode, runs heat-based admission; the caller then wakes the
// flight's waiters. Every flight a running fabric submits completes exactly
// once, so requests = hits + decodes + coalesced.
func (s *state) complete(fl *flight, fr *xtc.Frame, err error) {
	s.sm.decodes.Inc()
	if err == nil {
		k := fl.key
		incoming := s.heat.Heat(k.Logical, k.dropping())
		ok, evicted := s.cache.Admit(k, fr, fl.cost, func(victim Key) bool {
			// An incoming frame may displace a victim only if its subset is at
			// least as hot; rejecting the newcomer otherwise keeps a bulk scan's
			// one-touch frames from flushing an interactive session's working
			// set.
			return s.heat.Heat(victim.Logical, victim.dropping()) <= incoming
		})
		s.sm.evictions.Add(int64(evicted))
		if !ok {
			s.sm.rejected.Inc()
		}
		s.sm.bytes.Set(s.cache.Used())
	}
	delete(s.flights, fl.key)
	fl.frame, fl.err = fr, err
}
