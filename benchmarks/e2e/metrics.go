package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"

	"repro/internal/analysis"
)

// metricDef is one row of BENCHMARK.json. bound is set on end-to-end
// metrics only.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the cluster sees. Every workload reports all
// of them; which stage of the round a value comes from is in
// benchmarks/README.md. Every timing carries the widest bound the driver
// allows: on the reference host the whole machine runs a fifth to a third
// slower for minutes at a time, whatever the benchmark does (README,
// "How steady it is").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ingest_mbps", "MB/s", "higher", 0.25},
	{"stored_bytes_per_input_byte", "ratio", "lower", 0.01},
	{"turnaround_p_s", "s", "lower", 0.25},
	{"turnaround_all_s", "s", "lower", 0.25},
	{"frame_p50_us", "us", "lower", 0.25},
	{"playback_fps", "frames/s", "higher", 0.25},
}

// perLayer comes from the traced pass. Layer = module name.
var perLayer = []metricDef{
	{Name: "vmd.self_s", Unit: "s", Better: "lower"},
	{Name: "serve.self_us_per_frame", Unit: "us", Better: "lower"},
	{Name: "serve.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.coalesced_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.decodes_per_distinct_frame", Unit: "ratio", Better: "lower"},
	{Name: "serve.evictions", Unit: "count", Better: "lower"},
	{Name: "serve.queue_hwm", Unit: "count", Better: "lower"},
	{Name: "core.ingest_self_s", Unit: "s", Better: "lower"},
	{Name: "core.read_self_us_per_frame", Unit: "us", Better: "lower"},
	{Name: "core.open_ms", Unit: "ms", Better: "lower"},
	{Name: "core.append_self_ms_per_batch", Unit: "ms", Better: "lower"},
	{Name: "core.seal_ms", Unit: "ms", Better: "lower"},
	{Name: "core.vfs_ops_per_frame", Unit: "count", Better: "lower"},
	{Name: "core.ingest_parallel_ratio", Unit: "ratio", Better: "lower"},
	{Name: "xtc.decode_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "xtc.decode_share", Unit: "ratio", Better: "lower"},
	{Name: "plfs.self_us_per_op", Unit: "us", Better: "lower"},
	{Name: "placement.write_self_s_per_ingest", Unit: "s", Better: "lower"},
	{Name: "placement.read_self_us_per_op", Unit: "us", Better: "lower"},
	{Name: "placement.write_fanout", Unit: "ratio", Better: "lower"},
	{Name: "placement.hedge_fired", Unit: "count", Better: "lower"},
	{Name: "placement.failover_reads", Unit: "count", Better: "lower"},
	{Name: "rpc.self_s_per_ingest", Unit: "s", Better: "lower"},
	{Name: "rpc.calls_per_frame_ingest", Unit: "count", Better: "lower"},
	{Name: "rpc.write_bytes_per_call", Unit: "bytes", Better: "higher"},
	{Name: "rpc.read_rtt_us_p50", Unit: "us", Better: "lower"},
	{Name: "rpc.calls_per_frame_read", Unit: "count", Better: "lower"},
	{Name: "rpc.wire_overhead", Unit: "ratio", Better: "lower"},
	{Name: "rpc.retries", Unit: "count", Better: "lower"},
	{Name: "osfs.busy_s_per_ingest", Unit: "s", Better: "lower"},
	{Name: "osfs.write_ops_per_ingest", Unit: "count", Better: "lower"},
	{Name: "osfs.bytes_written_per_ingest", Unit: "bytes", Better: "lower"},
	{Name: "osfs.read_us_p50", Unit: "us", Better: "lower"},
	{Name: "e2e.first_frame_ms", Unit: "ms", Better: "lower"},
	{Name: "e2e.frame_p99_us", Unit: "us", Better: "lower"},
	{Name: "e2e.tail_lag_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "e2e.tail_lag_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "stream.append_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "stream.publishes_per_session", Unit: "count", Better: "lower"},
	{Name: "proc.cpu_user_s_per_op", Unit: "s", Better: "lower"},
	{Name: "proc.cpu_sys_s_per_op", Unit: "s", Better: "lower"},
	{Name: "proc.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "proc.alloc_mb_per_op", Unit: "MB", Better: "lower"},
	{Name: "proc.minor_faults_per_op", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "proc.layer_sum_over_total", Unit: "ratio", Better: "lower"},
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// ---- statistics ----

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile interpolates linearly between order statistics; 0 for no
// samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func toFloats(ns []int64, scale float64) []float64 {
	out := make([]float64, len(ns))
	for i, n := range ns {
		out[i] = float64(n) * scale
	}
	return out
}

// ---- end-to-end ----

func (s *samples) endToEnd(setupS float64) map[string]float64 {
	return map[string]float64{
		"setup_s":                     setupS,
		"ingest_mbps":                 median(s.ingestMBps),
		"stored_bytes_per_input_byte": median(s.storedPer),
		"turnaround_p_s":              median(s.turnPS),
		"turnaround_all_s":            median(s.turnAllS),
		"frame_p50_us":                quantile(toFloats(s.coldNS, 1e-3), 0.50),
		"playback_fps":                median(s.fps),
	}
}

// ungated are what a user sees too, but what the reference host cannot
// measure steadily: they go with the per-layer metrics, without a bound.
func (s *samples) ungated(out map[string]float64) {
	home := s.scrubNS
	if len(home) == 0 {
		home = s.coldNS
	}
	out["e2e.first_frame_ms"] = median(s.firstMS)
	out["e2e.frame_p99_us"] = quantile(toFloats(home, 1e-3), 0.99)
	out["e2e.tail_lag_p50_ms"] = median(s.lagMS)
	out["e2e.tail_lag_p99_ms"] = quantile(s.lagMS, 0.99)
}

// ---- process cost ----

// procMeter sums what the process pays for the workload's home-stage
// operations: CPU from getrusage, allocation and GC pause from the
// runtime. Servers and clients share the process, so both sides count.
type procMeter struct {
	ops            int
	user, sys      float64
	mallocs, bytes uint64
	pauseNS        uint64
	ms0, ms1       runtime.MemStats
	usage0, usage1 syscall.Rusage
	peakRSSKiB     int64
	minflt         int64
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

func (m *procMeter) measure(fn func()) {
	runtime.ReadMemStats(&m.ms0)
	syscall.Getrusage(syscall.RUSAGE_SELF, &m.usage0)
	fn()
	syscall.Getrusage(syscall.RUSAGE_SELF, &m.usage1)
	runtime.ReadMemStats(&m.ms1)
	m.ops++
	m.user += tvSeconds(m.usage1.Utime) - tvSeconds(m.usage0.Utime)
	m.sys += tvSeconds(m.usage1.Stime) - tvSeconds(m.usage0.Stime)
	m.mallocs += m.ms1.Mallocs - m.ms0.Mallocs
	m.bytes += m.ms1.TotalAlloc - m.ms0.TotalAlloc
	m.pauseNS += m.ms1.PauseTotalNs - m.ms0.PauseTotalNs
	m.peakRSSKiB = m.usage1.Maxrss
	m.minflt += m.usage1.Minflt - m.usage0.Minflt
}

func (m *procMeter) into(out map[string]float64) {
	n := float64(m.ops)
	out["proc.cpu_user_s_per_op"] = ratio(m.user, n)
	out["proc.cpu_sys_s_per_op"] = ratio(m.sys, n)
	out["proc.allocs_per_op"] = ratio(float64(m.mallocs), n)
	out["proc.alloc_mb_per_op"] = ratio(float64(m.bytes)/1e6, n)
	out["proc.minor_faults_per_op"] = ratio(float64(m.minflt), n)
	out["proc.gc_pause_ms"] = float64(m.pauseNS) / 1e6
	out["proc.peak_rss_mb"] = float64(m.peakRSSKiB) / 1024
}

// ---- per layer ----

// Stages a root span belongs to, by the call the harness made.
const (
	stWrite = iota // Ingest; OpenLiveIngest, Append, Seal
	stPlay         // OpenSubsetAt, first frame, PlayThrough, Close
	stTail         // the live tailer's Open, reads, Close
	stLoad         // LoadADASubset, LoadADAFull
	stOther        // Remove, the plfs probe
)

func stageOf(root *span) int {
	switch {
	case root.stack == 1:
		return stTail
	case root.layer == layerPLFS:
		return stOther
	}
	switch root.op {
	case "Ingest", "OpenLiveIngest", "Append", "Seal":
		return stWrite
	case "OpenSubsetAt", "ReadFrameAt", "PlayThrough", "Close":
		return stPlay
	case "LoadADASubset", "LoadADAFull":
		return stLoad
	}
	return stOther
}

// layerTable is what the resolved spans of a traced pass add up to.
type layerTable struct {
	self     map[string]float64 // seconds of self time by layer, all stages
	selfIn   [stOther + 1]map[string]float64
	rootsS   float64 // seconds the harness-made calls took
	allSelfS float64
	orphans  int
	out      map[string]float64
}

func (p *pass) layers(spans []span, untraced *pass) *layerTable {
	t := &layerTable{self: map[string]float64{}, out: map[string]float64{}}
	for i := range t.selfIn {
		t.selfIn[i] = map[string]float64{}
	}
	d := p.d
	var (
		datasets, appends                 float64
		clusterWriteB, poolWriteB, poolB  float64
		poolWriteCalls, poolCallsW        float64
		nodeBusyW, nodeWrites, nodeWriteB float64
		clusterOpsW                       float64
		handles, sources, poolCallsR      float64
		placeReads, placeReadSelf         float64
		appendSelf                        float64
		sealMS, openMS                    []float64
		plays, playSelf                   float64
		poolReadUS, nodeReadUS            []float64
		plfsSelf, plfsOps                 float64
	)
	for i := range spans {
		s := &spans[i]
		st := stageOf(&spans[s.root])
		self := float64(s.self()) / 1e9
		t.self[s.layer] += self
		t.selfIn[st][s.layer] += self
		t.allSelfS += self
		harness := s.lv == lvRoot || (s.lv == lvHandle && s.parent < 0)
		if harness {
			t.rootsS += float64(s.dur()) / 1e9
		} else if s.parent < 0 {
			t.orphans++
		}
		if s.lv == lvRoot {
			switch s.op {
			case "Ingest", "Seal":
				datasets++
			}
			switch s.op {
			case "Append":
				appends++
				appendSelf += self
			case "Seal":
				sealMS = append(sealMS, float64(s.dur())/1e6)
			case "OpenSubsetAt":
				openMS = append(openMS, float64(s.dur())/1e6)
			case "PlayThrough":
				plays++
				playSelf += self
			}
			if s.layer == layerPLFS {
				plfsSelf += self
				plfsOps++
			}
		}
		if s.lv == lvPool {
			poolB += float64(s.bytes)
		}
		switch st {
		case stWrite:
			switch s.lv {
			case lvCluster:
				clusterOpsW++
				if s.op == "write" {
					clusterWriteB += float64(s.bytes)
				}
			case lvPool:
				poolCallsW++
				if s.op == "write" {
					poolWriteCalls++
					poolWriteB += float64(s.bytes)
				}
			case lvNode:
				nodeBusyW += float64(s.dur()) / 1e9
				if s.op == "write" {
					nodeWrites++
					nodeWriteB += float64(s.bytes)
				}
			}
		case stPlay:
			switch s.lv {
			case lvHandle:
				if s.layer == layerServe { // not the harness's check spans
					handles++
				}
			case lvSource:
				sources++
			case lvCluster:
				if s.op == "read" {
					placeReads++
					placeReadSelf += self
				}
			case lvPool:
				if op := spans[s.root].op; op != "OpenSubsetAt" && op != "Close" {
					poolCallsR++ // calls a frame read made, not the open around it
				}
				if s.op == "read" {
					poolReadUS = append(poolReadUS, float64(s.dur())/1e3)
				}
			case lvNode:
				if s.op == "read" {
					nodeReadUS = append(nodeReadUS, float64(s.dur())/1e3)
				}
			}
		}
	}
	o := t.out
	w, pl := t.selfIn[stWrite], t.selfIn[stPlay]
	framesIn := datasets * float64(d.frames)
	decodeS := d.decodeAlone.Seconds()
	writeWall := ratio(w[layerCore]+w[layerPlacement]+w[layerRPC]+w[layerOSFS], datasets)

	o["vmd.self_s"] = ratio(playSelf, plays)
	o["serve.self_us_per_frame"] = ratio(pl[layerServe]*1e6, handles)
	var requests, hits, coalesced, decodes, evictions, hwm float64
	for _, snap := range p.fabrics {
		requests += float64(snap.Counters["serve.requests"])
		hits += float64(snap.Counters["serve.cache.hits"])
		coalesced += float64(snap.Counters["serve.coalesced"])
		decodes += float64(snap.Counters["serve.decodes"])
		evictions += float64(snap.Counters["serve.cache.evictions"])
		hwm = math.Max(hwm, float64(snap.Gauges["serve.queue_depth_hwm"]))
	}
	o["serve.hit_ratio"] = ratio(hits, requests)
	o["serve.coalesced_ratio"] = ratio(coalesced, requests)
	o["serve.decodes_per_distinct_frame"] = ratio(decodes, float64(len(p.fabrics)*d.frames))
	o["serve.evictions"] = ratio(evictions, float64(len(p.fabrics)))
	o["serve.queue_hwm"] = hwm

	// core's write self time still holds the xtc decode; take out what
	// decoding the same bytes alone costs (computed, not traced).
	o["core.ingest_self_s"] = ratio(w[layerCore], datasets) - decodeS
	o["core.read_self_us_per_frame"] = ratio(pl[layerCore]*1e6, sources)
	o["core.open_ms"] = analysis.Mean(openMS)
	o["core.append_self_ms_per_batch"] = ratio(appendSelf*1e3, appends)
	o["core.seal_ms"] = analysis.Mean(sealMS)
	o["core.vfs_ops_per_frame"] = ratio(clusterOpsW, framesIn)
	o["xtc.decode_mbps"] = ratio(float64(len(d.xtc))/1e6, decodeS)
	o["xtc.decode_share"] = ratio(decodeS, writeWall)
	o["plfs.self_us_per_op"] = ratio(plfsSelf*1e6, plfsOps)

	o["placement.write_self_s_per_ingest"] = ratio(w[layerPlacement], datasets)
	o["placement.read_self_us_per_op"] = ratio(placeReadSelf*1e6, placeReads)
	o["placement.write_fanout"] = ratio(poolWriteB, clusterWriteB)
	placeCounters := func(name string) float64 {
		n := p.main.placeReg.Snapshot().Counters[name]
		if p.tail != nil {
			n += p.tail.placeReg.Snapshot().Counters[name]
		}
		return float64(n)
	}
	o["placement.hedge_fired"] = placeCounters("placement.hedge.fired")
	o["placement.failover_reads"] = placeCounters("placement.failover.reads")

	o["rpc.self_s_per_ingest"] = ratio(w[layerRPC], datasets)
	o["rpc.calls_per_frame_ingest"] = ratio(poolCallsW, framesIn)
	o["rpc.write_bytes_per_call"] = ratio(poolWriteB, poolWriteCalls)
	o["rpc.read_rtt_us_p50"] = median(poolReadUS)
	o["rpc.calls_per_frame_read"] = ratio(poolCallsR, handles)
	o["rpc.wire_overhead"] = ratio(float64(rpcWireBytes(p.main, p.tail)-p.wire0), poolB)
	retries := p.main.rpcReg.Snapshot().Counters["rpc.client.retries"]
	if p.tail != nil {
		retries += p.tail.rpcReg.Snapshot().Counters["rpc.client.retries"]
	}
	o["rpc.retries"] = float64(retries)

	o["osfs.busy_s_per_ingest"] = ratio(nodeBusyW, datasets)
	o["osfs.write_ops_per_ingest"] = ratio(nodeWrites, datasets)
	o["osfs.bytes_written_per_ingest"] = ratio(nodeWriteB, datasets)
	o["osfs.read_us_p50"] = median(nodeReadUS)

	// Client-visible stream numbers and the process cost come from the
	// untraced pass of the same run.
	u := &untraced.s
	o["stream.append_ms_p50"] = median(u.appendMS)
	u.ungated(o)
	o["stream.publishes_per_session"] = analysis.Mean(u.publishes)
	untraced.proc.into(o)
	o["proc.trace_overhead_pct"] = 100 * (ratio(median(p.s.roundS), median(u.roundS)) - 1)
	o["proc.layer_sum_over_total"] = ratio(t.allSelfS, t.rootsS)
	return t
}

// rpcWireBytes is what the stack's pools sent and received, frames and
// payload together.
func rpcWireBytes(stacks ...*stack) int64 {
	var n int64
	for _, s := range stacks {
		if s == nil {
			continue
		}
		c := s.rpcReg.Snapshot().Counters
		n += c["rpc.client.bytes_sent"] + c["rpc.client.bytes_received"]
	}
	return n
}
