package serve

import (
	"container/heap"
	"fmt"

	"repro/internal/metrics"
	"repro/internal/xtc"
)

// CostModel prices the simulated storage node's read side.
type CostModel struct {
	// DecodeBps is the shared decode server's throughput over raw frame
	// bytes — a miss occupies the server for cost/DecodeBps seconds.
	DecodeBps float64
	// HitBps is the rate a cache hit is copied out at; hits never queue.
	HitBps float64
}

// DefaultCostModel matches the repo's measured single-core decode rate
// (~500 MB/s raw after the PR-6 fused unpack path) and a memory-bandwidth
// hit path.
var DefaultCostModel = CostModel{DecodeBps: 500e6, HitBps: 8e9}

// SimSession is one synthetic playback client in a Simulate run.
type SimSession struct {
	Tenant  string
	Class   string // histogram label (serve.class.<Class>.read_ns); Tenant when empty
	Logical string
	Tag     string
	NAtoms  int
	Frames  int     // the subset's frame count, which bounds read-ahead; 0 turns it off
	Pattern []int   // frame numbers to demand, in order
	Think   float64 // seconds between a read completing and the next demand
	Start   float64 // virtual start time
}

// SimReport summarizes a Simulate run: how far the run moved the serve.*
// counters of the config's metrics registry, plus the makespan. The latency
// distributions land in the same registry (serve.tenant.<t>.read_ns and
// serve.class.<c>.read_ns, in virtual nanoseconds).
type SimReport struct {
	Reads     int64
	Hits      int64
	Decodes   int64
	Coalesced int64
	Ahead     int64 // flights the predictor submitted: Reads + Ahead = Hits + Decodes + Coalesced
	Evictions int64
	Rejected  int64
	Makespan  float64
}

// sim event kinds, ordered (time, seq) on the heap for determinism.
const (
	evIssue = iota // a session demands its next frame
	evDone         // the decode server finishes a flight
)

type event struct {
	at   float64
	seq  int
	kind int
	sess *simSess
	fl   *flight
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

type simSess struct {
	SimSession
	reader
	step    int
	tm      tenantMetrics
	classNS *metrics.Histogram
}

// simWaiter records one session attached to a flight and when it asked.
type simWaiter struct {
	sess   *simSess
	issued float64
}

// counted reads the report's counts off the request path's counters, less
// what they held at base.
func (m serveMetrics) counted(base SimReport) SimReport {
	return SimReport{
		Reads:     m.requests.Value() - base.Reads,
		Hits:      m.hits.Value() - base.Hits,
		Decodes:   m.decodes.Value() - base.Decodes,
		Coalesced: m.coalesced.Value() - base.Coalesced,
		Ahead:     m.ahead.Value() - base.Ahead,
		Evictions: m.evictions.Value() - base.Evictions,
		Rejected:  m.rejected.Value() - base.Rejected,
	}
}

// Simulate replays the given sessions against one fabric — the live path's
// own lookup (read-ahead included) and completion, over the same scheduler,
// cache, and admission — as a single-threaded discrete-event simulation on
// a virtual clock. One
// virtual decode server models the node's decode bandwidth
// (CostModel.DecodeBps); cache hits are served off-queue at HitBps. The run
// is fully deterministic: identical inputs produce identical latency
// histograms, which is what lets CI gate on p50/p99 with a tight regression
// bar.
func Simulate(cfg Config, cost CostModel, sessions []SimSession) SimReport {
	cfg = cfg.withDefaults()
	if cost.DecodeBps <= 0 {
		cost.DecodeBps = DefaultCostModel.DecodeBps
	}
	if cost.HitBps <= 0 {
		cost.HitBps = DefaultCostModel.HitBps
	}
	reg := cfg.Metrics

	now := 0.0
	st := newState(cfg, func() float64 { return now })
	base := st.sm.counted(SimReport{})
	waiters := map[*flight][]simWaiter{}

	var makespan float64
	var events eventHeap
	seq := 0
	push := func(e *event) {
		e.seq = seq
		seq++
		heap.Push(&events, e)
	}

	for i := range sessions {
		s := &simSess{SimSession: sessions[i]}
		if s.Class == "" {
			s.Class = s.Tenant
		}
		s.reader = reader{tenant: s.Tenant, cost: xtc.RawFrameSize(s.NAtoms), frames: s.Frames, prev: -1}
		s.tm = newTenantMetrics(reg, s.Tenant)
		s.classNS = reg.Histogram(fmt.Sprintf("serve.class.%s.read_ns", s.Class))
		if len(s.Pattern) > 0 {
			push(&event{at: s.Start, kind: evIssue, sess: s})
		}
	}

	// served closes one read: latency observed, next demand scheduled.
	served := func(s *simSess, latSec, doneAt float64) {
		ns := int64(latSec * 1e9)
		s.tm.readNS.Observe(ns)
		s.classNS.Observe(ns)
		s.tm.requests.Inc()
		if doneAt > makespan {
			makespan = doneAt
		}
		if s.step < len(s.Pattern) {
			push(&event{at: doneAt + s.Think, kind: evIssue, sess: s})
		}
	}
	serverBusy := false
	pump := func() {
		if serverBusy {
			return
		}
		if fl := st.sched.next(); fl != nil {
			serverBusy = true
			push(&event{at: now + float64(fl.cost)/cost.DecodeBps, kind: evDone, fl: fl})
		}
	}

	for events.Len() > 0 {
		e := heap.Pop(&events).(*event)
		now = e.at
		switch e.kind {
		case evIssue:
			s := e.sess
			k := Key{Logical: s.Logical, Tag: s.Tag, Frame: s.Pattern[s.step]}
			s.step++
			_, fl, submitted := st.lookup(k, k.dropping(), &s.reader)
			if fl == nil {
				lat := float64(s.cost) / cost.HitBps
				served(s, lat, now+lat)
			} else {
				waiters[fl] = append(waiters[fl], simWaiter{sess: s, issued: now})
			}
			if submitted > 0 {
				pump()
			}
		case evDone:
			serverBusy = false
			// The simulated decode always succeeds; content is not modeled,
			// only residency and timing.
			st.complete(e.fl, nil, nil)
			for _, w := range waiters[e.fl] {
				served(w.sess, now-w.issued, now)
			}
			delete(waiters, e.fl)
			pump()
		}
	}
	rep := st.sm.counted(base)
	rep.Makespan = makespan
	return rep
}
