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

// heatHalfLife is the cache-admission heat decay, in clock seconds.
const heatHalfLife = 300

// aheadDepth is how many frames past a demand the predictor keeps in flight.
// Chosen from a sweep of 1, 2 and 4 on the end-to-end benchmark's cold and
// scrub playback (see DESIGN.md, "Read-ahead in the fabric").
const aheadDepth = 2

// flight is one in-progress decode: the unit of scheduling and of
// coalescing. Every session demanding its key between submit and completion
// attaches to the same flight; the first demander's tenant pays for it. An
// ahead flight has no demander: the predictor submitted it, charged to the
// tenant whose reads it predicted.
type flight struct {
	key    Key
	tenant string
	cost   int64
	h      *Handle
	ahead  bool
	done   chan struct{}
	frame  *xtc.Frame
	err    error
}

// wait blocks until the flight completes and returns its outcome.
func (fl *flight) wait() (*xtc.Frame, error) {
	<-fl.done
	return fl.frame, fl.err
}

// reader is what the request path keeps of whoever demands frames: a live
// Handle or a simulated session.
type reader struct {
	tenant string
	cost   int64
	frames int     // ahead flights stay below it; 0 turns read-ahead off
	prev   int     // the previous demand; -1 before the first
	h      *Handle // the source flights decode through; nil in Simulate
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
	ahead     *metrics.Counter
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
		ahead:     reg.Counter("serve.ahead"),
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
		sched:   newScheduler(cfg.QuantumBytes),
		heat:    tier.NewTracker(now, heatHalfLife),
		sm:      newServeMetrics(cfg.Metrics),
	}
}

// lookup records the demand as heat and resolves it one of three ways: a
// cache hit (the frame, nil flight), an attach to the in-flight decode of
// the same key (coalesced — counted once as a decode, however many wait),
// or a new flight queued on the fair-share scheduler. Then the predictor
// runs: if r's previous demand was the frame before or after this one, the
// next aheadDepth frames in that direction, within r.frames, are queued as
// ahead flights behind the demand unless resident or in flight. submitted
// counts the flights queued; the caller wakes that many dispatchers.
// dropping is k.dropping(), built once by the caller so a hit allocates
// nothing.
func (s *state) lookup(k Key, dropping string, r *reader) (fr *xtc.Frame, fl *flight, submitted int) {
	s.heat.Record(k.Logical, dropping, r.cost)
	s.sm.requests.Inc()
	var ok bool
	if fr, ok = s.cache.Get(k); ok {
		s.sm.hits.Inc()
	} else {
		s.sm.misses.Inc()
		if fl, ok = s.flights[k]; ok {
			s.sm.coalesced.Inc()
		} else {
			fl = s.submit(k, r, false)
			submitted++
		}
	}
	if dir := k.Frame - r.prev; r.prev >= 0 && (dir == 1 || dir == -1) {
		for d := 1; d <= aheadDepth; d++ {
			a := k
			if a.Frame += d * dir; a.Frame < 0 || a.Frame >= r.frames {
				break
			}
			if !s.cache.Contains(a) && s.flights[a] == nil {
				s.submit(a, r, true)
				s.sm.ahead.Inc()
				submitted++
			}
		}
	}
	r.prev = k.Frame
	if submitted > 0 {
		s.sm.queueHWM.SetMax(int64(s.sched.pending))
	}
	return fr, fl, submitted
}

// submit queues a new flight for k under r's tenant.
func (s *state) submit(k Key, r *reader, ahead bool) *flight {
	fl := &flight{key: k, tenant: r.tenant, cost: r.cost, h: r.h, ahead: ahead, done: make(chan struct{})}
	s.flights[k] = fl
	s.sched.submit(fl)
	return fl
}

// complete publishes a dispatched flight's outcome on the flight and, for a
// successful decode, runs heat-based admission; the caller then wakes the
// flight's waiters. A failed flight is never cached. Every flight a running
// fabric submits completes exactly once, so requests + ahead = hits +
// decodes + coalesced.
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
