package serve

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/vmd"
	"repro/internal/xtc"
)

// TestOneFrameCache guards the collapse: decoded frames are held by one LRU
// type (the only container/list importer under internal/), nothing brings
// the viewer-side prefetcher back, and inside serve the request path is the
// one lookup and the one completion — admission is called from one place and
// neither harness reaches the cache, the flight table or their counters
// itself.
func TestOneFrameCache(t *testing.T) {
	var listImporters, admitCalls []string
	files := 0
	for _, root := range []string{"../../internal", "../../cmd", "../../examples", "../../ada.go"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			files++
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			path = filepath.ToSlash(path)
			body := string(src)
			if strings.Contains(body, `"container/list"`) && strings.HasPrefix(path, "../../internal/") {
				listImporters = append(listImporters, path)
			}
			if strings.Contains(body, "PrefetchSource") {
				t.Errorf("%s mentions PrefetchSource; read-ahead belongs in the fabric's lookup", path)
			}
			if strings.HasPrefix(path, "../../internal/serve/") {
				for n := strings.Count(body, ".Admit("); n > 0; n-- {
					admitCalls = append(admitCalls, path)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if files < 50 {
		t.Fatalf("guard looked at only %d source files; is it running in internal/serve?", files)
	}
	if len(listImporters) != 1 {
		t.Errorf("container/list importers under internal/: %v, want exactly one (the frame LRU)", listImporters)
	}
	if len(admitCalls) != 1 {
		t.Errorf("Admit call sites in internal/serve: %v, want exactly one (state.complete)", admitCalls)
	}
	for _, harness := range []string{"serve.go", "sim.go"} {
		src, err := os.ReadFile(harness)
		if err != nil {
			t.Fatal(err)
		}
		for _, own := range []string{"st.cache", "st.flights", "sm.requests.", "sm.hits.", "sm.misses.",
			"sm.coalesced.", "sm.decodes.", "sm.evictions.", "sm.rejected.", "sm.bytes.", "sm.queueHWM."} {
			if strings.Contains(string(src), own) {
				t.Errorf("%s touches %s itself; a harness goes through state.lookup and state.complete", harness, own)
			}
		}
	}
}

// TestSimAndFabricAgree replays one closed-loop session — back and forth
// over a cache smaller than the subset, reading ahead — through the
// simulator and through a live one-worker fabric: sharing the request path,
// the two harnesses count the same hits, decodes, ahead flights, evictions
// and rejections, and each keeps requests + ahead = hits + decodes +
// coalesced. The schedule is one both reproduce: the simulated session
// thinks for longer than its ahead flights take to decode, and the live
// session waits for the fabric to go idle between reads.
func TestSimAndFabricAgree(t *testing.T) {
	const frames, natoms = 8, 10
	pattern := vmd.BackAndForth(frames, 5)
	cfg := func(reg *metrics.Registry) Config {
		return Config{
			CacheBytes: 3 * xtc.RawFrameSize(natoms),
			Workers:    1,
			Now:        func() float64 { return 0 },
			Metrics:    reg,
		}
	}

	simReg := metrics.NewRegistry()
	think := 10 * aheadDepth * float64(xtc.RawFrameSize(natoms)) / DefaultCostModel.DecodeBps
	rep := Simulate(cfg(simReg), DefaultCostModel, []SimSession{{
		Tenant: "alice", Logical: "/ds", Tag: "p", NAtoms: natoms, Frames: frames, Pattern: pattern, Think: think,
	}})

	src := &stubSource{frames: frames, natoms: natoms}
	f, liveReg := newTestFabric(t, cfg(nil))
	h := f.Open("alice", "/ds", "p", natoms, src)
	for _, i := range pattern {
		if _, err := h.ReadFrameAt(i); err != nil {
			t.Fatal(err)
		}
		waitIdle(t, f)
	}

	live := liveReg.Snapshot().Counters
	for _, c := range []struct {
		name string
		sim  int64
	}{
		{"serve.requests", rep.Reads},
		{"serve.cache.hits", rep.Hits},
		{"serve.decodes", rep.Decodes},
		{"serve.coalesced", rep.Coalesced},
		{"serve.ahead", rep.Ahead},
		{"serve.cache.evictions", rep.Evictions},
		{"serve.cache.rejected", rep.Rejected},
	} {
		if live[c.name] != c.sim {
			t.Errorf("%s: fabric %d, simulator %d", c.name, live[c.name], c.sim)
		}
		if got := simReg.Snapshot().Counters[c.name]; got != c.sim {
			t.Errorf("%s: simulator's registry %d, its report %d", c.name, got, c.sim)
		}
	}
	if rep.Hits == 0 || rep.Evictions == 0 || rep.Ahead == 0 {
		t.Fatalf("session never hit, never evicted or never read ahead (%+v); nothing compared", rep)
	}
	if rep.Reads+rep.Ahead != rep.Hits+rep.Decodes+rep.Coalesced || rep.Reads != int64(len(pattern)) {
		t.Errorf("identity broken: %d reads of %d, %d ahead, %d hits + %d decodes + %d coalesced",
			rep.Reads, len(pattern), rep.Ahead, rep.Hits, rep.Decodes, rep.Coalesced)
	}
	if got := src.reads.Load(); got != rep.Decodes {
		t.Errorf("source saw %d reads, %d decodes counted", got, rep.Decodes)
	}
}

// TestCachedReadAllocs pins the hit path: one lock, one map lookup, one
// list move, nothing allocated. 26b269e allocated once per read, building
// the subset's heat name; the handle now builds it at Open.
func TestCachedReadAllocs(t *testing.T) {
	src := &stubSource{frames: 4, natoms: 10}
	f, _ := newTestFabric(t, Config{Workers: 1})
	h := f.Open("alice", "/ds", "p", src.natoms, src)
	read := func() {
		if _, err := h.ReadFrameAt(1); err != nil {
			t.Fatal(err)
		}
	}
	read()
	if n := testing.AllocsPerRun(200, read); n != 0 {
		t.Errorf("cached ReadFrameAt allocates %v times, want 0", n)
	}
}
