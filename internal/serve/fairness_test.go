package serve

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/metrics"
	"repro/internal/vmd"
	"repro/internal/xtc"
)

const (
	iaAtoms   = 1000  // interactive subset (protein-only)
	bulkAtoms = 40000 // bulk scanner's full-system frames
)

// fairnessConfig is shared by the solo and contended runs so the comparison
// isolates the workload change.
func fairnessConfig(reg *metrics.Registry) Config {
	return Config{
		CacheBytes:   64 << 20,
		QuantumBytes: 512 << 10, // ~one bulk frame per DRR visit
		Metrics:      reg,
	}
}

// interactiveSessions are four independent viewers replaying small windows
// back and forth with think time — the paper's §2.1 workload.
func interactiveSessions() []SimSession {
	var out []SimSession
	for n := 0; n < 4; n++ {
		out = append(out, SimSession{
			Tenant:  fmt.Sprintf("ia%d", n),
			Class:   "interactive",
			Logical: fmt.Sprintf("/ia%d", n),
			Tag:     "p",
			NAtoms:  iaAtoms,
			Frames:  24,
			Pattern: vmd.BackAndForth(24, 4),
			Think:   0.005,
			Start:   float64(n) * 0.001,
		})
	}
	return out
}

// bulkSessions are one tenant's four parallel full-trajectory scans with no
// think time: enough demand to saturate the decode server indefinitely.
func bulkSessions() []SimSession {
	var out []SimSession
	for n := 0; n < 4; n++ {
		pattern := make([]int, 4000)
		for i := range pattern {
			pattern[i] = i
		}
		out = append(out, SimSession{
			Tenant:  "bulk",
			Class:   "bulk",
			Logical: fmt.Sprintf("/bulk%d", n),
			Tag:     "misc",
			NAtoms:  bulkAtoms,
			Frames:  len(pattern),
			Pattern: pattern,
		})
	}
	return out
}

// TestFairShareBoundsInteractiveP99 is the scheduler's headline guarantee:
// a saturating bulk scan inflates interactive p99 by at most a fixed,
// provable bound — one in-service bulk frame (non-preemptible) plus one
// quantum's worth dispatched ahead — instead of queueing interactive reads
// behind the whole backlog.
func TestFairShareBoundsInteractiveP99(t *testing.T) {
	soloReg := metrics.NewRegistry()
	solo := Simulate(fairnessConfig(soloReg), DefaultCostModel, interactiveSessions())
	p99Solo := soloReg.Snapshot().Histograms["serve.class.interactive.read_ns"].P99
	if p99Solo <= 0 || solo.Reads != 4*96 {
		t.Fatalf("solo baseline broken: p99=%dns reads=%d", p99Solo, solo.Reads)
	}

	contReg := metrics.NewRegistry()
	cont := Simulate(fairnessConfig(contReg), DefaultCostModel,
		append(interactiveSessions(), bulkSessions()...))
	snap := contReg.Snapshot()
	p99Cont := snap.Histograms["serve.class.interactive.read_ns"].P99

	// The bulk tenant must actually have been backlogged, or the run proves
	// nothing.
	if hwm := snap.Gauges["serve.queue_depth_hwm"]; hwm < 2 {
		t.Fatalf("queue HWM = %d; bulk scan never contended", hwm)
	}
	if bulkP50 := snap.Histograms["serve.class.bulk.read_ns"].P50; bulkP50 <= 0 {
		t.Fatal("bulk class saw no traffic")
	}

	// Fixed bound: an interactive miss can wait out the residual of one
	// in-service bulk frame plus at most one more dispatched by the bulk
	// tenant's quantum before DRR reaches it. Doubling the solo term and
	// adding 3 bulk service times absorbs the histogram's 12.5% bucket
	// error with room to spare — the point is the bound does not scale with
	// the bulk backlog (16k queued frames ≈ 15 virtual seconds of work).
	bulkSvcNS := int64(float64(xtc.RawFrameSize(bulkAtoms)) / DefaultCostModel.DecodeBps * 1e9)
	bound := 2*p99Solo + 3*bulkSvcNS
	if p99Cont > bound {
		t.Errorf("interactive p99 under bulk load = %dns, bound %dns (solo %dns, bulk svc %dns)",
			p99Cont, bound, p99Solo, bulkSvcNS)
	}

	// Accounting identity: every read is exactly one of cache hit, decode
	// originator, or coalesced attach, and every ahead flight is one more
	// decode — coalesced demands never re-count a decode. Both tenants read
	// ahead here, the bulk one charged to its own share.
	for _, r := range []SimReport{solo, cont} {
		if r.Ahead == 0 {
			t.Errorf("no read-ahead in %+v", r)
		}
		if r.Reads+r.Ahead != r.Hits+r.Decodes+r.Coalesced {
			t.Errorf("reads=%d + ahead=%d != hits=%d + decodes=%d + coalesced=%d",
				r.Reads, r.Ahead, r.Hits, r.Decodes, r.Coalesced)
		}
	}
	if snap.Counters["serve.decodes"] != cont.Decodes ||
		snap.Counters["serve.coalesced"] != cont.Coalesced {
		t.Errorf("registry decodes/coalesced = %d/%d, report = %d/%d",
			snap.Counters["serve.decodes"], snap.Counters["serve.coalesced"],
			cont.Decodes, cont.Coalesced)
	}
}

// TestFairnessDeterministic: the whole contended simulation — report and
// latency distributions — is bit-identical run to run, which is what lets
// CI gate its percentiles with a tight regression bar.
func TestFairnessDeterministic(t *testing.T) {
	run := func() (SimReport, metrics.Snapshot) {
		reg := metrics.NewRegistry()
		rep := Simulate(fairnessConfig(reg), DefaultCostModel,
			append(interactiveSessions(), bulkSessions()...))
		return rep, reg.Snapshot()
	}
	rep1, snap1 := run()
	rep2, snap2 := run()
	if rep1 != rep2 {
		t.Errorf("reports differ:\n  %+v\n  %+v", rep1, rep2)
	}
	if !reflect.DeepEqual(snap1.Histograms, snap2.Histograms) {
		t.Error("latency histograms differ between identical runs")
	}
	if !reflect.DeepEqual(snap1.Counters, snap2.Counters) {
		t.Error("counters differ between identical runs")
	}
}

// TestSimCoalescingCountsOnce: N sessions demanding the same cold frame at
// the same instant produce exactly one decode, with the rest attached as
// coalesced waiters sharing its completion.
func TestSimCoalescingCountsOnce(t *testing.T) {
	const demands = 6
	var sessions []SimSession
	for n := 0; n < demands; n++ {
		sessions = append(sessions, SimSession{
			Tenant:  fmt.Sprintf("t%d", n),
			Class:   "burst",
			Logical: "/shared",
			Tag:     "p",
			NAtoms:  iaAtoms,
			Pattern: []int{5},
		})
	}
	reg := metrics.NewRegistry()
	rep := Simulate(fairnessConfig(reg), DefaultCostModel, sessions)
	if rep.Decodes != 1 || rep.Coalesced != demands-1 || rep.Hits != 0 {
		t.Errorf("report = %+v, want 1 decode, %d coalesced, 0 hits", rep, demands-1)
	}
	snap := reg.Snapshot()
	if snap.Counters["serve.decodes"] != 1 {
		t.Errorf("serve.decodes = %d for %d same-frame demands, want exactly 1",
			snap.Counters["serve.decodes"], demands)
	}
	if h := snap.Histograms["serve.class.burst.read_ns"]; h.Count != demands {
		t.Errorf("%d latency samples, want %d (every waiter observes the shared decode)",
			h.Count, demands)
	}
}
