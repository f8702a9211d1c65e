package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/vmd"
	"repro/internal/xtc"
)

// mix is one workload: how often each stage runs in a round. A round is
// one dataset's life on the cluster — written (one-shot or live), read
// back the ways a viewer reads it, removed — so every round uses a fresh
// logical name and the storage footprint stays constant. All four
// workloads run every kind of stage, because the driver wants every
// end-to-end metric on every workload; they differ in which stage the
// round is mostly made of. All loops are closed: a client issues its
// next call when the previous one returns.
type mix struct {
	name, why string
	home      string // the stage the workload is named for: proc.* meters it
	ingests   int    // one-shot core.Ingest calls; the last dataset is the one read back
	live      bool   // the dataset is written by a live session with a tailer instead
	sweeps    int    // scrub: back-and-forth sweeps per viewer, two viewers on one fabric
	colds     int    // cold playback: open, first frame, play through on a fresh fabric
	loadP     int    // Session.LoadADASubset(tag p)
	loadAll   int    // Session.LoadADAFull
}

var workloads = []mix{
	{name: "ingest_oneshot", home: "ingest", ingests: 2, colds: 2, loadP: 1, loadAll: 1,
		why: "write path: xtc decode, core split/CRC/journal, plfs, placement 2-way writes, rpc, osfs do the work; serve and vmd only read the result back"},
	{name: "playback_cold", home: "cold", ingests: 1, colds: 4, loadP: 2, loadAll: 1,
		why: "the paper's turnaround: the 66.6 MB subset exceeds the 32 MiB cache, so every frame misses and core, placement, rpc, osfs decide it; the serve cache gives nothing"},
	{name: "playback_scrub", home: "scrub", ingests: 1, sweeps: 20, colds: 1, loadP: 1, loadAll: 1,
		why: "two viewers scrub one 48 MiB fabric: most requests hit or coalesce, so serve and lock contention decide it and rpc/placement/core sit near idle"},
	{name: "live_tail", home: "live", live: true, colds: 2, loadP: 1, loadAll: 1,
		why: "writes beside reads: 5-frame appends with a checkpoint and publish each, tailed over watch long-polls from a separate client stack"},
}

// warmup is the round run once, untimed, before the timed ones: one of
// each stage the workload has, so the page cache, the heap and the
// connections are in steady state when timing starts. Ingesting into
// memory the guest never touched is slower than into recycled pages.
func (m mix) warmup() mix {
	one := func(n int) int {
		if n > 1 {
			return 1
		}
		return n
	}
	m.ingests, m.colds, m.loadP = one(m.ingests), one(m.colds), one(m.loadP)
	if m.sweeps > 4 {
		m.sweeps = 4
	}
	return m
}

// firstsPerRound is how often a round opens its dataset and brings only
// frame 0 through a fresh fabric. A cold playback yields one first-frame
// sample per 300 frames read; these make first_frame_ms the median of
// about a hundred samples a run, for 2 ms each.
const firstsPerRound = 16

func workloadByName(name string) (mix, bool) {
	for _, m := range workloads {
		if m.name == name {
			return m, true
		}
	}
	return mix{}, false
}

// config sizes a run. The defaults are the benchmark; the smoke test
// shrinks them.
type config struct {
	scale       int     // gpcr.Scaled factor; 1 is the 43.5k-atom system
	frames      int     // frames per dataset
	batchFrames int     // frames per live Append
	seed        int64   // dataset and pattern seed
	seconds     float64 // timed window; rounds start while less than this has passed
	minRounds   int     // rounds the window always contains
	setups      int     // set-up repetitions; setup_s reports their median
	coldCache   int64   // fabric cache for cold playback and the tailer
	scrubCache  int64   // fabric cache the two scrub viewers share
	dir         string  // store root: node directories live under it
	outDir      string  // traces and results
}

func defaultConfig() config {
	return config{
		scale: 1, frames: 300, batchFrames: 5, seed: 42,
		seconds: 20, minRounds: 2, setups: 3,
		coldCache: 32 << 20, scrubCache: 48 << 20,
		outDir: "benchmarks/e2e/out",
	}
}

// samples are the raw observations of one pass; metrics are computed
// from them when the pass ends.
type samples struct {
	roundS     []float64
	ingestMBps []float64
	storedPer  []float64
	firstMS    []float64
	turnPS     []float64
	turnAllS   []float64
	coldNS     []int64   // per-read latency, cold playbacks
	scrubNS    []int64   // per-read latency, scrub stages
	fps        []float64 // of the home playback stage

	appendMS  []float64
	lagMS     []float64
	publishes []float64
}

// pass is one run of a workload's rounds over one cluster: untraced
// (rec == nil) or traced.
type pass struct {
	cfg  config
	m    mix
	d    *dataset
	ref  map[string]dropping
	cl   *cluster
	main *stack // stack 0: every client but the tailer
	tail *stack // stack 1: the live tailer, as a separate host would be
	rec  *recorder
	rng  *rand.Rand

	seq      int
	s        samples
	wire0    int64              // what the pools had sent and received when the timed rounds began
	fabrics  []metrics.Snapshot // serve registries of the home playback stage
	proc     *procMeter         // non-nil: meter home-stage operations
	attempts int
	failures int
	errs     []string
}

func (p *pass) attempt() { p.attempts++ }

func (p *pass) fail(format string, args ...any) {
	p.failures++
	if len(p.errs) < 8 {
		p.errs = append(p.errs, fmt.Sprintf(format, args...))
	}
}

// nextName returns a logical name no earlier round used. The fabric cache
// is keyed by logical name and would serve a removed dataset's frames to
// a re-ingest under the same name. Names have one length, so manifests
// do too.
func (p *pass) nextName(kind byte) string {
	p.seq++
	return fmt.Sprintf("/%c%06d.xtc", kind, p.seq)
}

// stage runs fn; if it is the workload's home stage, as one of the
// operations proc.* is counted per.
func (p *pass) stage(kind string, fn func()) {
	if kind == p.m.home && p.proc != nil {
		p.proc.measure(fn)
	} else {
		fn()
	}
}

func (p *pass) round(rep int) {
	if p.rec != nil {
		p.rec.rep.Store(int32(rep))
	}
	t0 := time.Now()
	m := p.m
	var name string
	if m.live {
		p.stage("live", func() { name = p.liveSession() })
	} else {
		for k := 0; k < m.ingests; k++ {
			if name != "" {
				p.remove(name)
			}
			p.stage("ingest", func() { name = p.ingest() })
		}
	}
	if name != "" {
		if m.sweeps > 0 {
			p.stage("scrub", func() { p.scrub(name) })
		}
		for k := 0; k < m.colds; k++ {
			p.stage("cold", func() { p.cold(name) })
		}
		p.firstFrames(name)
		for k := 0; k < m.loadP; k++ {
			p.load(name, true)
		}
		for k := 0; k < m.loadAll; k++ {
			p.load(name, false)
		}
		p.remove(name)
	}
	p.s.roundS = append(p.s.roundS, time.Since(t0).Seconds())
}

// loop runs rounds for the configured window. A round is never cut
// short; a new one starts only if, going by the last one, it would end
// inside the window, so the timed part averages the window, not the
// window plus half a round.
func (p *pass) loop(seconds float64) {
	t0 := time.Now()
	for rep := 0; ; rep++ {
		if rep >= p.cfg.minRounds && time.Since(t0).Seconds()+p.s.roundS[rep-1] > seconds {
			return
		}
		p.round(rep)
	}
}

// ---- write stages ----

func (p *pass) committed(name string, hash bool, wall time.Duration) {
	p.attempt()
	total, err := p.cl.checkCommitted(name, p.ref, hash)
	if err != nil {
		p.fail("%v", err)
		return
	}
	in := float64(len(p.d.xtc))
	p.s.ingestMBps = append(p.s.ingestMBps, in/1e6/wall.Seconds())
	p.s.storedPer = append(p.s.storedPer, float64(total)/in)
}

// ingest writes one dataset with core.Ingest and checks what the nodes
// hold. It returns "" if the ingest failed.
func (p *pass) ingest() string {
	name := p.nextName('i')
	wall, err := p.rec.root(layerCore, "Ingest", 0, -1, func() error {
		_, err := p.main.ada.Ingest(name, p.d.pdb, bytes.NewReader(p.d.xtc))
		return err
	})
	if err != nil {
		p.attempt()
		p.fail("ingest %s: %v", name, err)
		return ""
	}
	p.committed(name, false, wall)
	return name
}

// liveSession writes one dataset the way a running simulation does:
// the producer appends batches as fast as Append returns and seals, while
// a tailer on its own client stack reads every frame through a live serve
// handle. The tailer has its own pools because a watch long-poll parks
// the connection it rides on; on shared pools it parks the producer's.
func (p *pass) liveSession() string {
	name := p.nextName('l')
	d := p.d
	var li *core.LiveIngest
	if _, err := p.rec.root(layerCore, "OpenLiveIngest", 0, -1, func() (err error) {
		li, err = p.main.ada.OpenLiveIngest(name, d.pdb)
		return err
	}); err != nil {
		p.attempt()
		p.fail("open live %s: %v", name, err)
		return ""
	}
	var src *stream.Source
	if _, err := p.rec.root(layerStream, "Open", 1, -1, func() (err error) {
		src, err = stream.Open(p.tail.ada, name, core.TagProtein, stream.Options{Metrics: metrics.NewRegistry()})
		return err
	}); err != nil {
		p.attempt()
		p.fail("tail open %s: %v", name, err)
		li.Abort()
		return ""
	}
	fab := serve.New(serve.Config{CacheBytes: p.cfg.coldCache, Metrics: metrics.NewRegistry()})
	v := newViewer(fab.Open("tailer", name, core.TagProtein, d.pAtoms, traceSource(src, p.rec, 1)), d.refP, p.rec, 1)
	v.observed = make([]time.Time, d.frames)

	tailed := make(chan error, 1)
	go func() {
		for f := 0; f < d.frames; f++ {
			if _, err := v.ReadFrameAt(f); err != nil {
				tailed <- fmt.Errorf("tail frame %d: %w", f, err)
				return
			}
		}
		tailed <- nil
	}()

	published := make([]time.Time, d.frames)
	frame := 0
	var ingestErr error
	t0 := time.Now()
	for b, batch := range d.batches {
		var n int
		dur, err := p.rec.root(layerCore, "Append", 0, b, func() (err error) {
			n, err = li.Append(batch)
			return err
		})
		if err != nil {
			ingestErr = fmt.Errorf("append %d: %w", b, err)
			break
		}
		now := time.Now()
		for ; n > 0; n-- {
			published[frame] = now
			frame++
		}
		p.s.appendMS = append(p.s.appendMS, dur.Seconds()*1e3)
	}
	// The producer seals once the tailer has been handed the last frame.
	// Seal renames the staging droppings into place before it removes the
	// live head, so a reader that refreshes its head in between finds the
	// head unsealed and the staging dropping gone, and core.LiveReader
	// retries only a missing live index. The benchmark runs workloads on
	// which nothing fails; see benchmarks/README.md.
	var tailErr error
	tailDone := false
	if ingestErr == nil {
		tailErr, tailDone = <-tailed, true
		p.s.publishes = append(p.s.publishes, float64(li.Head().Version))
		if _, err := p.rec.root(layerCore, "Seal", 0, -1, func() error {
			_, err := li.Seal()
			return err
		}); err != nil {
			ingestErr = fmt.Errorf("seal: %w", err)
		}
	}
	wall := time.Since(t0)
	if ingestErr != nil {
		li.Abort() // a tailer still reading sees the dataset vanish and returns
	}
	if !tailDone {
		tailErr = <-tailed
	}
	p.rec.root(layerStream, "Close", 1, -1, src.Close)
	fab.Close()

	p.attempt()
	if ingestErr != nil {
		p.fail("live %s: %v", name, ingestErr)
		return ""
	}
	p.attempts += d.frames
	if tailErr != nil {
		p.fail("live %s: %v", name, tailErr)
	}
	for i := 0; i < v.bad; i++ {
		p.fail("live %s: tailed frame differs from the reference decode", name)
	}
	if tailErr == nil {
		for f, seen := range v.observed {
			lag := seen.Sub(published[f]).Seconds() * 1e3
			if lag < 0 {
				lag = 0 // the head is visible before Append returns
			}
			p.s.lagMS = append(p.s.lagMS, lag)
		}
	}
	p.committed(name, true, wall)
	return name
}

func (p *pass) remove(name string) {
	p.attempt()
	if _, err := p.rec.root(layerCore, "Remove", 0, -1, func() error { return p.main.ada.Remove(name) }); err != nil {
		p.fail("remove %s: %v", name, err)
		return
	}
	if err := p.cl.checkGone(name); err != nil {
		p.fail("%v", err)
	}
}

// ---- read stages ----

// viewer is a client of a fabric handle. It times every ReadFrameAt, and
// checks each frame object it is handed against the reference decode the
// first time it sees it; a cached frame is the same object on every hit,
// so hits cost one pointer comparison. Time spent checking is kept apart
// and taken out of the playback wall.
type viewer struct {
	h     frameSource
	ref   []uint64
	rec   *recorder
	stack int8

	seen     []*xtc.Frame
	observed []time.Time // live: when each frame first came back
	lat      []int64
	reads    int
	bad      int
	checking time.Duration
}

func newViewer(h frameSource, ref []uint64, rec *recorder, stack int) *viewer {
	return &viewer{h: h, ref: ref, rec: rec, stack: int8(stack), seen: make([]*xtc.Frame, len(ref))}
}

func (v *viewer) Frames() int { return v.h.Frames() }

func (v *viewer) ReadFrameAt(i int) (*xtc.Frame, error) {
	var s span
	if v.rec != nil {
		s = span{layer: layerServe, op: "ReadFrameAt", lv: lvHandle, stack: v.stack, node: -1,
			rep: v.rec.rep.Load(), key: int32(i), start: v.rec.now()}
	}
	t0 := time.Now()
	fr, err := v.h.ReadFrameAt(i)
	t1 := time.Now()
	if v.rec != nil {
		v.rec.add(s)
	}
	if err != nil {
		return nil, err
	}
	v.lat = append(v.lat, int64(t1.Sub(t0)))
	v.reads++
	if v.observed != nil && v.observed[i].IsZero() {
		v.observed[i] = t1
	}
	if v.seen[i] != fr {
		if v.rec != nil {
			s = span{layer: layerHarness, op: "check", lv: lvHandle, stack: v.stack, node: -1,
				rep: s.rep, key: s.key, start: v.rec.now()}
		}
		if hashCoords(fr.Coords) != v.ref[i] {
			v.bad++
		}
		v.seen[i] = fr
		v.checking += time.Since(t1)
		if v.rec != nil {
			v.rec.add(s) // keeps the check out of PlayThrough's self time
		}
	}
	return fr, nil
}

// play is what one viewer does with a dataset: open tag p, bring frame 0
// through the fabric, then play the rest of the pattern. It returns the
// time to the first frame and the playback wall, checks taken out.
func (p *pass) play(fab *serve.Fabric, tenant, name string, pattern []int) (v *viewer, first, wall time.Duration, err error) {
	t0 := time.Now()
	var rr *core.SubsetRandomReader
	if _, err = p.rec.root(layerCore, "OpenSubsetAt", 0, -1, func() (err error) {
		rr, err = p.main.ada.OpenSubsetAt(name, core.TagProtein)
		return err
	}); err != nil {
		return nil, 0, 0, err
	}
	defer p.rec.root(layerCore, "Close", 0, -1, rr.Close)
	v = newViewer(fab.Open(tenant, name, core.TagProtein, rr.Info.NAtoms, traceSource(rr, p.rec, 0)), p.d.refP, p.rec, 0)
	if _, err = v.ReadFrameAt(pattern[0]); err != nil {
		return v, 0, 0, err
	}
	first = time.Since(t0) - v.checking
	if len(pattern) == 1 {
		return v, first, first, nil
	}
	sess := vmd.NewSession(nil, 0, vmd.ComputeCost{})
	_, err = p.rec.root(layerVMD, "PlayThrough", 0, -1, func() error {
		_, err := sess.PlayThrough(v, pattern[1:])
		return err
	})
	return v, first, time.Since(t0) - v.checking, err
}

func (p *pass) played(name string, v *viewer, shown int) {
	p.attempts += shown
	if v.reads != shown {
		p.fail("play %s: %d of %d frames shown", name, v.reads, shown)
	}
	for i := 0; i < v.bad; i++ {
		p.fail("play %s: frame differs from the reference decode", name)
	}
}

// cold plays the dataset once, in order, on a fresh fabric whose cache is
// smaller than the subset: every frame is a miss.
func (p *pass) cold(name string) {
	reg := metrics.NewRegistry()
	fab := serve.New(serve.Config{CacheBytes: p.cfg.coldCache, Metrics: reg})
	defer fab.Close()
	v, first, wall, err := p.play(fab, "viewer-a", name, vmd.Sequential(p.d.frames))
	if err != nil {
		p.attempt()
		p.fail("cold %s: %v", name, err)
		return
	}
	p.played(name, v, p.d.frames)
	p.s.coldNS = append(p.s.coldNS, v.lat...)
	p.s.firstMS = append(p.s.firstMS, first.Seconds()*1e3)
	if p.m.home != "scrub" { // there fps and serve.* describe the scrub stage
		p.s.fps = append(p.s.fps, float64(p.d.frames)/wall.Seconds())
		p.fabrics = append(p.fabrics, reg.Snapshot())
	}
}

// firstFrames is the start of a cold playback, firstsPerRound times over:
// open tag p, bring frame 0 through a fresh fabric, close.
func (p *pass) firstFrames(name string) {
	for k := 0; k < firstsPerRound; k++ {
		fab := serve.New(serve.Config{CacheBytes: p.cfg.coldCache, Metrics: metrics.NewRegistry()})
		v, first, _, err := p.play(fab, "viewer-a", name, []int{0})
		fab.Close()
		p.attempt()
		if err != nil {
			p.fail("first frame %s: %v", name, err)
			continue
		}
		if v.bad > 0 {
			p.fail("first frame %s: differs from the reference decode", name)
		}
		p.s.firstMS = append(p.s.firstMS, first.Seconds()*1e3)
	}
}

// scrub has two viewers, two tenants, scrub the same subset back and
// forth on one fabric; the second starts a seed-chosen way into the
// first one's pattern.
func (p *pass) scrub(name string) {
	reg := metrics.NewRegistry()
	fab := serve.New(serve.Config{CacheBytes: p.cfg.scrubCache, Metrics: reg})
	defer fab.Close()
	a := vmd.BackAndForth(p.d.frames, p.m.sweeps)
	off := p.rng.Intn(len(a))
	b := append(append([]int{}, a[off:]...), a[:off]...)

	type outcome struct {
		v    *viewer
		wall time.Duration
		err  error
	}
	out := make([]outcome, 2)
	var wg sync.WaitGroup
	for i, pat := range [][]int{a, b} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := &out[i]
			o.v, _, o.wall, o.err = p.play(fab, fmt.Sprintf("viewer-%c", 'a'+i), name, pat)
		}()
	}
	wg.Wait()
	var slowest time.Duration
	for _, o := range out {
		if o.err != nil {
			p.attempt()
			p.fail("scrub %s: %v", name, o.err)
			return
		}
		if o.wall > slowest {
			slowest = o.wall
		}
	}
	for _, o := range out {
		p.played(name, o.v, len(a))
		p.s.scrubNS = append(p.s.scrubNS, o.v.lat...)
	}
	p.s.fps = append(p.s.fps, float64(2*len(a))/slowest.Seconds())
	p.fabrics = append(p.fabrics, reg.Snapshot())
}

// load is `mol addfile name tag p` (or without the tag): a vmd session
// pulls the whole subset, or the whole reassembled trajectory, into
// memory.
func (p *pass) load(name string, subset bool) {
	p.attempt()
	sess := vmd.NewSession(nil, 0, vmd.ComputeCost{})
	sess.SetMetrics(metrics.NewRegistry())
	op, ref, call := "LoadADAFull", p.d.refAll, func() error { return sess.LoadADAFull(p.main.ada, name) }
	if subset {
		op, ref, call = "LoadADASubset", p.d.refP, func() error { return sess.LoadADASubset(p.main.ada, name, core.TagProtein) }
	}
	wall, err := p.rec.root(layerVMD, op, 0, -1, call)
	if err != nil {
		p.fail("%s %s: %v", op, name, err)
		return
	}
	if sess.Frames() != len(ref) {
		p.fail("%s %s: %d frames loaded, want %d", op, name, sess.Frames(), len(ref))
		return
	}
	for i, want := range ref {
		if hashCoords(sess.Frame(i).Coords) != want {
			p.fail("%s %s: frame %d differs from the reference decode", op, name, i)
			return
		}
	}
	if subset {
		p.s.turnPS = append(p.s.turnPS, wall.Seconds())
	} else {
		p.s.turnAllS = append(p.s.turnAllS, wall.Seconds())
	}
}
