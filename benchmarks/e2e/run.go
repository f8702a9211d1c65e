package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/vfs"
)

// result is one run of one workload: what the last line of output is made
// from, plus the host and configuration the numbers belong to.
type result struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Trace     bool             `json:"trace"`
	Host      hostInfo         `json:"host"`
	Rounds    int              `json:"rounds"`
	GenS      float64          `json:"generate_s"`
	StartS    []float64        `json:"cluster_start_and_preingest_s"`
	RoundS    []float64        `json:"round_s"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	Errors    []string         `json:"errors,omitempty"`
	layers    *layerTable
}

// site is one cluster with its client stacks, over one store directory.
type site struct {
	dir  string
	cl   *cluster
	main *stack
	tail *stack
}

func openSite(dir string, rec *recorder, withTail bool) (*site, error) {
	s := &site{dir: dir}
	var err error
	if s.cl, err = startCluster(dir, rec); err != nil {
		return nil, err
	}
	if s.main, err = s.cl.dial(0, rec); err != nil {
		s.close()
		return nil, err
	}
	if withTail {
		if s.tail, err = s.cl.dial(1, rec); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// close stops the clients and the nodes and deletes the store directory.
func (s *site) close() error {
	if s.main != nil {
		s.main.close()
	}
	if s.tail != nil {
		s.tail.close()
	}
	err := s.cl.close()
	if rmErr := os.RemoveAll(s.dir); err == nil {
		err = rmErr
	}
	return err
}

// preIngest is the storage half of set-up: one ingest of the dataset.
// The container it commits is the reference every later container of the
// run, one-shot or sealed live, is compared with.
const referenceName = "/r000000.xtc"

func (s *site) preIngest(d *dataset) error {
	if _, err := s.main.ada.Ingest(referenceName, d.pdb, bytes.NewReader(d.xtc)); err != nil {
		return fmt.Errorf("reference ingest: %w", err)
	}
	return nil
}

// reference checks and checksums the pre-ingested container as the node
// directories hold it, then removes it so rounds start from an empty
// store.
func (s *site) reference() (map[string]dropping, error) {
	if _, err := s.cl.checkCommitted(referenceName, nil, false); err != nil {
		return nil, err
	}
	ref, err := s.cl.inspect(referenceName, true)
	if err != nil {
		return nil, err
	}
	if err := s.main.ada.Remove(referenceName); err != nil {
		return nil, err
	}
	return ref, s.cl.checkGone(referenceName)
}

// runWorkload is one benchmark run: generate the dataset from the seed,
// set the cluster up, warm up one round, time rounds for cfg.seconds.
// With trace set the window is split between an untraced pass, which
// gives the process costs, and a traced one over a second cluster whose
// seams are wrapped; the result then carries the per-layer metrics
// instead of the end-to-end ones.
func runWorkload(cfg config, m mix, trace bool) (*result, error) {
	res := &result{Workload: m.name, Seed: cfg.seed, Trace: trace, Metrics: map[string]value{}}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(cfg.dir, "store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	res.Host = hostOf(cfg, m, root)

	// Set-up is dataset generation, once, plus cluster start and the
	// pre-ingest, cfg.setups times; setup_s reports generation plus the
	// median of those. The last cluster is the one the run uses.
	t0 := time.Now()
	d, err := generate(cfg.scale, cfg.frames, cfg.batchFrames, cfg.seed)
	if err != nil {
		return nil, err
	}
	genS := time.Since(t0).Seconds()
	var (
		st     *site
		startS []float64
	)
	for k := 0; k < cfg.setups; k++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, err
			}
		}
		t0 = time.Now()
		if st, err = openSite(filepath.Join(root, fmt.Sprintf("u%d", k)), nil, m.live); err != nil {
			return nil, err
		}
		if err = st.preIngest(d); err != nil {
			st.close()
			return nil, err
		}
		startS = append(startS, time.Since(t0).Seconds())
	}
	defer func() { st.close() }()
	setupS := genS + median(startS)
	ref, err := st.reference()
	if err != nil {
		return nil, err
	}

	newPass := func(s *site, m mix, rec *recorder) *pass {
		return &pass{cfg: cfg, m: m, d: d, ref: ref, cl: s.cl, main: s.main, tail: s.tail,
			rec: rec, rng: rand.New(rand.NewSource(cfg.seed))}
	}
	timed := func(s *site, rec *recorder, seconds float64, meter bool) *pass {
		// The warm-up pass has no recorder, but over a traced site the
		// seams record anyway; reset drops those spans.
		warm := newPass(s, m.warmup(), nil)
		warm.round(0)
		if rec != nil {
			rec.reset()
		}
		p := newPass(s, m, rec)
		p.seq = warm.seq // names stay unique across the two passes
		p.attempts, p.failures, p.errs = warm.attempts, warm.failures, warm.errs
		if meter {
			p.proc = &procMeter{}
		}
		p.wire0 = rpcWireBytes(s.main, s.tail)
		p.loop(seconds)
		return p
	}

	window := cfg.seconds
	if trace {
		window /= 2
	}
	up := timed(st, nil, window, trace)
	passes := []*pass{up}
	if !trace {
		for name, v := range up.s.endToEnd(setupS) {
			res.Metrics[name] = value{v, unitOf(endToEnd, name)}
		}
	} else {
		rec := newRecorder()
		ts, err := openSite(filepath.Join(root, "traced"), rec, m.live)
		if err != nil {
			return nil, err
		}
		defer ts.close()
		tp := timed(ts, rec, window, false)
		tp.plfsProbe()
		passes = append(passes, tp)
		spans := rec.resolve()
		res.layers = tp.layers(spans, up)
		res.layers.out["core.ingest_parallel_ratio"] = up.parallelProbe()
		for name, v := range res.layers.out {
			res.Metrics[name] = value{v, unitOf(perLayer, name)}
		}
		if err := writeTrace(cfg.outDir, m.name, spans); err != nil {
			return nil, err
		}
	}
	res.GenS, res.StartS = genS, startS
	for _, p := range passes {
		res.Rounds += len(p.s.roundS)
		res.RoundS = append(res.RoundS, p.s.roundS...)
		res.Attempted += p.attempts
		res.Failed += p.failures
		res.Errors = append(res.Errors, p.errs...)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}

// parallelProbe times core.IngestParallel against core.Ingest, three
// alternating repetitions each, on the untraced stack: ROADMAP keeps a
// parallel path only if a baseline shows it winning.
func (p *pass) parallelProbe() float64 {
	var serial, parallel []float64
	for k := 0; k < 3; k++ {
		for _, par := range []bool{false, true} {
			name := p.nextName('p')
			t0 := time.Now()
			var err error
			if par {
				_, err = p.main.ada.IngestParallel(name, p.d.pdb, bytes.NewReader(p.d.xtc), 0)
			} else {
				_, err = p.main.ada.Ingest(name, p.d.pdb, bytes.NewReader(p.d.xtc))
			}
			wall := time.Since(t0).Seconds()
			p.attempt()
			if err != nil {
				p.fail("parallel probe %s: %v", name, err)
				continue
			}
			if _, err := p.cl.checkCommitted(name, p.ref, false); err != nil {
				p.fail("parallel probe: %v", err)
			}
			if par {
				parallel = append(parallel, wall)
			} else {
				serial = append(serial, wall)
			}
			p.remove(name)
		}
	}
	return ratio(median(parallel), median(serial))
}

// plfsProbe drives plfs.FS directly — create, write, close, open, read,
// close of forty 1 MiB droppings, 240 calls — over the traced cluster seam. A call's
// span minus the cluster-seam spans inside it is plfs's own time, which
// the main trace cannot separate from core's.
func (p *pass) plfsProbe() {
	const logical = "/plfs-probe"
	store := p.main.store
	buf := make([]byte, 1<<20)
	p.rng.Read(buf)
	got := make([]byte, len(buf))
	call := func(op string, fn func() error) bool {
		p.attempt()
		if _, err := p.rec.root(layerPLFS, op, 0, -1, fn); err != nil {
			p.fail("plfs probe %s: %v", op, err)
			return false
		}
		return true
	}
	if !call("CreateContainer", func() error { return store.CreateContainer(logical) }) {
		return
	}
	for i := 0; i < 40; i++ {
		name := fmt.Sprintf("probe.%d", i)
		var f vfs.File
		ok := call("CreateDropping", func() (err error) {
			f, err = store.CreateDropping(logical, name, "cluster")
			return err
		}) &&
			call("Write", func() error { _, err := f.Write(buf); return err }) &&
			call("Close", func() error { return f.Close() }) &&
			call("OpenDropping", func() (err error) {
				f, err = store.OpenDropping(logical, name)
				return err
			}) &&
			call("Read", func() error { _, err := io.ReadFull(f, got); return err }) &&
			call("Close", func() error { return f.Close() })
		if !ok {
			break
		}
		if !bytes.Equal(got, buf) {
			p.fail("plfs probe: %s read back differently", name)
		}
	}
	call("RemoveContainer", func() error { return store.RemoveContainer(logical) })
}
