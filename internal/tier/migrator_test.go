package tier

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gpcr"
	"repro/internal/mdsim"
	"repro/internal/metrics"
	"repro/internal/pdb"
	"repro/internal/plfs"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/vmd"
	"repro/internal/xtc"
)

// testDataset builds a small synthetic dataset: pdb bytes plus a compressed
// trajectory stream (the same fixture shape core's tests use).
func testDataset(t testing.TB, scale, frames int) (pdbBytes, traj []byte) {
	t.Helper()
	sys, err := gpcr.Scaled(scale).Build()
	if err != nil {
		t.Fatal(err)
	}
	var pb bytes.Buffer
	if err := pdb.Write(&pb, sys.Structure); err != nil {
		t.Fatal(err)
	}
	cats := make([]pdb.Category, sys.Structure.NAtoms())
	for i := range cats {
		cats[i] = sys.Structure.Atoms[i].Category
	}
	s, err := mdsim.New(sys.Coords, cats, sys.Box, mdsim.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var tb bytes.Buffer
	w := xtc.NewWriter(&tb)
	if err := s.WriteTrajectory(w, frames); err != nil {
		t.Fatal(err)
	}
	return pb.Bytes(), tb.Bytes()
}

func newStore(t testing.TB) *plfs.FS {
	return storeOver(t, vfs.NewMemFS(), vfs.NewMemFS())
}

// storeOver mounts a two-backend container store over the given backends;
// two stores over the same backends see the same datasets.
func storeOver(t testing.TB, ssd, hdd vfs.FS) *plfs.FS {
	t.Helper()
	containers, err := plfs.New(
		plfs.Backend{Name: "ssd", FS: ssd, Mount: "/mnt1"},
		plfs.Backend{Name: "hdd", FS: hdd, Mount: "/mnt2"},
	)
	if err != nil {
		t.Fatal(err)
	}
	return containers
}

// heatedStore is storeOver with each backend wrapped in HeatFS, the way a
// storage node serves them: reads through it feed trk.
func heatedStore(t testing.TB, ssd, hdd vfs.FS, trk *Tracker) *plfs.FS {
	return storeOver(t, HeatFS(ssd, trk), HeatFS(hdd, trk))
}

// ingestPlaced ingests one dataset with an explicit tag placement.
func ingestPlaced(t testing.TB, containers *plfs.FS, reg *metrics.Registry,
	logical string, pl core.Placement, pdbBytes, traj []byte) {
	t.Helper()
	a := core.New(containers, nil, core.Options{Placement: pl, Metrics: reg})
	if _, err := a.Ingest(logical, pdbBytes, bytes.NewReader(traj)); err != nil {
		t.Fatal(err)
	}
}

func readFrames(t testing.TB, a *core.ADA, logical, tag string) []*xtc.Frame {
	t.Helper()
	sr, err := a.OpenSubset(logical, tag)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	var out []*xtc.Frame
	for {
		f, err := sr.ReadFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, f)
	}
	return out
}

func sameFrames(a, b []*xtc.Frame) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Step != b[i].Step || len(a[i].Coords) != len(b[i].Coords) {
			return false
		}
		for j := range a[i].Coords {
			if a[i].Coords[j] != b[i].Coords[j] {
				return false
			}
		}
	}
	return true
}

func subsetBackend(t testing.TB, containers *plfs.FS, logical, tag string) string {
	t.Helper()
	d, err := containers.StatDropping(logical, "subset."+tag)
	if err != nil {
		t.Fatal(err)
	}
	return d.Backend
}

// TestMigratorEndToEnd is the subsystem's deterministic acceptance test.
// Two datasets: /a ingested entirely on the slow backend, /b entirely on
// the fast one, which starts over the high watermark. A vmd playback
// session replays only /a's protein subset through a store whose backends
// are wrapped in HeatFS, so the cache misses that reach storage heat it.
// The migrator runs over an unwrapped store on the same backends. One
// planning round must then demote both of /b's cold subsets and promote
// /a's hot protein subset — with every byte served before and after
// identical, and the move visible in the tier.* metrics.
func TestMigratorEndToEnd(t *testing.T) {
	pdbBytes, traj := testDataset(t, 200, 6)
	ssd, hdd := vfs.NewMemFS(), vfs.NewMemFS()
	containers := storeOver(t, ssd, hdd)
	reg := metrics.NewRegistry()
	allSlow := core.Placement{core.TagProtein: "hdd", core.TagMisc: "hdd"}
	allFast := core.Placement{core.TagProtein: "ssd", core.TagMisc: "ssd"}
	ingestPlaced(t, containers, reg, "/a", allSlow, pdbBytes, traj)
	ingestPlaced(t, containers, reg, "/b", allFast, pdbBytes, traj)

	a := core.New(containers, nil, core.Options{Metrics: reg})
	golden := map[[2]string][]*xtc.Frame{}
	for _, logical := range []string{"/a", "/b"} {
		for _, tag := range []string{core.TagProtein, core.TagMisc} {
			golden[[2]string{logical, tag}] = readFrames(t, a, logical, tag)
		}
	}

	// The virtual clock makes heat decay deterministic; only the test
	// advances it.
	env := sim.NewEnv()
	trk := NewTracker(env.Clock.Now, 60)

	// Size the fast budget so /b alone breaches the high watermark, but a
	// single demoted subset's worth of space fits /a's protein subset.
	u0 := ssdUsage(t, containers)
	cfg := Config{
		Fast: "ssd", Slow: "hdd",
		CapacityBytes: (u0-1)*10/9 - 10, // high watermark lands just under u0
		HighWater:     0.9, LowWater: 0.1,
	}
	m, err := NewMigrator(a, containers, trk, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Replay /a's protein subset: a back-and-forth sweep through a frame
	// cache. Misses read through the heated store; repeats hit the cache and
	// never reach storage, as a remote viewer's would not reach the node.
	served := core.New(heatedStore(t, ssd, hdd, trk), nil, core.Options{Metrics: reg})
	src, err := served.OpenSubsetAt("/a", core.TagProtein)
	if err != nil {
		t.Fatal(err)
	}
	s := vmd.NewSession(nil, 0, vmd.ComputeCost{})
	cache := s.NewFrameCache(src, 1<<30)
	st, err := s.Play(cache, vmd.BackAndForth(6, 3))
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache.Hits == 0 || st.Cache.Misses == 0 {
		t.Fatalf("playback should both hit and miss: %+v", st.Cache)
	}
	cache.Release()
	src.Close()
	hot := trk.Heat("/a", "subset."+core.TagProtein)
	if hot <= 0 {
		t.Fatal("playback produced no heat")
	}
	// Five minutes of idle (five half-lives) decays the heat but leaves it
	// above the promotion bar: the signal survives the planning delay.
	env.Clock.Advance(300)
	if h := trk.Heat("/a", "subset."+core.TagProtein); h <= 1 || h >= hot {
		t.Fatalf("decayed heat = %g (was %g)", h, hot)
	}

	rep, err := m.Step()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Demotions) != 2 {
		t.Fatalf("demotions = %+v, want /b's two subsets", rep.Demotions)
	}
	for _, mv := range rep.Demotions {
		if mv.Logical != "/b" || mv.From != "ssd" || mv.To != "hdd" {
			t.Fatalf("unexpected demotion %+v", mv)
		}
	}
	if len(rep.Promotions) != 1 || rep.Promotions[0].Logical != "/a" ||
		rep.Promotions[0].Tag != core.TagProtein || rep.Promotions[0].To != "ssd" {
		t.Fatalf("promotions = %+v, want /a protein to ssd", rep.Promotions)
	}
	if rep.BytesMoved <= 0 {
		t.Fatal("no bytes moved")
	}

	// Placement after the round: /a's hot protein on fast, everything cold
	// on slow.
	want := map[[2]string]string{
		{"/a", core.TagProtein}: "ssd",
		{"/a", core.TagMisc}:    "hdd",
		{"/b", core.TagProtein}: "hdd",
		{"/b", core.TagMisc}:    "hdd",
	}
	for k, be := range want {
		if got := subsetBackend(t, containers, k[0], k[1]); got != be {
			t.Errorf("%s/%s on %s, want %s", k[0], k[1], got, be)
		}
	}
	// Every subset still reads byte-identically. These verification reads
	// are the test's, not the workload's: they go through the unwrapped
	// store, so they do not heat the cold subsets before the convergence
	// check below.
	for k, frames := range golden {
		if !sameFrames(readFrames(t, a, k[0], k[1]), frames) {
			t.Errorf("%s/%s frames changed across migration", k[0], k[1])
		}
	}
	// The round is visible to operators.
	snap := reg.Snapshot()
	if snap.Counters["tier.demotions"] != 2 || snap.Counters["tier.promotions"] != 1 {
		t.Errorf("counters = demote:%d promote:%d", snap.Counters["tier.demotions"], snap.Counters["tier.promotions"])
	}
	if snap.Counters["tier.bytes_moved"] != rep.BytesMoved {
		t.Errorf("tier.bytes_moved = %d, want %d", snap.Counters["tier.bytes_moved"], rep.BytesMoved)
	}
	if snap.Gauges["tier.fast_usage_bytes"] != ssdUsage(t, containers) {
		t.Errorf("tier.fast_usage_bytes = %d, want %d",
			snap.Gauges["tier.fast_usage_bytes"], ssdUsage(t, containers))
	}
	if snap.Gauges["tier.over_high_watermark"] != 0 {
		t.Error("still over the high watermark after the round")
	}

	// A second round is a no-op: the store has converged.
	rep2, err := m.Step()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Demotions)+len(rep2.Promotions) != 0 {
		t.Fatalf("second step moved data: %+v", rep2)
	}

	// The operator report agrees with the store.
	r, err := m.Report()
	if err != nil {
		t.Fatal(err)
	}
	if r.FastUsage != ssdUsage(t, containers) || len(r.Subsets) != 4 {
		t.Fatalf("report = %+v", r)
	}
	for _, sp := range r.Subsets {
		if want[[2]string{sp.Logical, sp.Tag}] != sp.Backend {
			t.Errorf("report places %s/%s on %s", sp.Logical, sp.Tag, sp.Backend)
		}
	}
}

// ssdUsage walks the fast backend.
func ssdUsage(t *testing.T, containers *plfs.FS) int64 {
	t.Helper()
	n, err := containers.UsageOf("ssd")
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestMigratorPinNever(t *testing.T) {
	pdbBytes, traj := testDataset(t, 150, 3)
	containers := newStore(t)
	reg := metrics.NewRegistry()
	allFast := core.Placement{core.TagProtein: "ssd", core.TagMisc: "ssd"}
	ingestPlaced(t, containers, reg, "/ds", allFast, pdbBytes, traj)
	a := core.New(containers, nil, core.Options{Metrics: reg})
	trk := NewTracker((&virtualClock{}).Now, 0)
	m, err := NewMigrator(a, containers, trk, Config{
		Fast: "ssd", Slow: "hdd",
		CapacityBytes: ssdUsage(t, containers) / 2, // hopelessly over budget
		HighWater:     0.9, LowWater: 0.1,
		Pins: map[string]Pin{core.TagProtein: PinNever, core.TagMisc: PinNever},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Step()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Demotions) != 0 {
		t.Fatalf("pinned subsets demoted: %+v", rep.Demotions)
	}
	if reg.Snapshot().Gauges["tier.over_high_watermark"] != 1 {
		t.Error("over-watermark gauge not raised")
	}
}

// TestMigratorSkipsUncommitted: a dataset still being ingested has no
// manifest, so MoveSubset could only fail on it; the planner must leave it
// alone rather than end its round. /cold is live on an over-full fast tier,
// /hot is live on the slow one and hot enough to promote. While both are
// live a round moves nothing and returns no error; once sealed, the same
// rounds demote /cold and promote /hot.
func TestMigratorSkipsUncommitted(t *testing.T) {
	pdbBytes, traj := testDataset(t, 150, 3)
	containers := newStore(t)
	reg := metrics.NewRegistry()
	var live []*core.LiveIngest
	for logical, be := range map[string]string{"/cold": "ssd", "/hot": "hdd"} {
		pl := core.Placement{core.TagProtein: be, core.TagMisc: be}
		li, err := core.New(containers, nil, core.Options{Placement: pl, Metrics: reg}).OpenLiveIngest(logical, pdbBytes)
		if err != nil {
			t.Fatal(err)
		}
		defer li.Abort()
		if _, err := li.Append(traj); err != nil {
			t.Fatal(err)
		}
		live = append(live, li)
	}
	a := core.New(containers, nil, core.Options{Metrics: reg})
	for _, li := range live {
		waitLanded(t, a, li) // walk the backends only once nothing is being put
	}
	trk := NewTracker((&virtualClock{}).Now, 0)
	trk.Record("/hot", "subset."+core.TagProtein, 1<<20)
	migrator := func(capacity int64) *Migrator {
		m, err := NewMigrator(a, containers, trk, Config{
			Fast: "ssd", Slow: "hdd", CapacityBytes: capacity,
			HighWater: 0.9, LowWater: 0.1, PromoteHeat: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	demote := migrator(ssdUsage(t, containers) / 2) // hopelessly over budget
	promote := migrator(1 << 30)
	for _, m := range []*Migrator{demote, promote} {
		rep, err := m.Step()
		if err != nil {
			t.Fatalf("round over live datasets: %v", err)
		}
		if len(rep.Demotions)+len(rep.Promotions) != 0 {
			t.Fatalf("live datasets moved: demoted %+v, promoted %+v", rep.Demotions, rep.Promotions)
		}
	}
	for _, li := range live {
		if _, err := li.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	if rep, err := demote.Step(); err != nil || len(rep.Demotions) == 0 || rep.Demotions[0].Logical != "/cold" {
		t.Fatalf("sealed /cold on an over-full fast tier: %+v, %v", rep, err)
	}
	if rep, err := promote.Step(); err != nil || len(rep.Promotions) == 0 || rep.Promotions[0].Logical != "/hot" {
		t.Fatalf("sealed hot /hot: %+v, %v", rep, err)
	}
}

// waitLanded waits until a sees li's last head: Append publishes it in the
// background.
func waitLanded(t *testing.T, a *core.ADA, li *core.LiveIngest) {
	t.Helper()
	want := li.Head()
	var crc uint32
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		h, c, changed, err := a.WaitLiveHead(want.Logical, crc, time.Until(deadline))
		if err != nil {
			t.Fatal(err)
		}
		if changed {
			if crc = c; h.Version >= want.Version {
				return
			}
		}
	}
	t.Fatalf("head %d of %s never landed", want.Version, want.Logical)
}

// listDownFS is a backend whose directory listings fail while down.
type listDownFS struct {
	vfs.FS
	down bool
}

func (f *listDownFS) ReadDir(name string) ([]vfs.FileInfo, error) {
	if f.down {
		return nil, vfs.ErrBackendDown
	}
	return f.FS.ReadDir(name)
}

// TestMigratorWalkErrorEndsRound: a round whose usage walk fails moves
// nothing, returns the walk's error, and counts it, rather than plan from
// a short sum.
func TestMigratorWalkErrorEndsRound(t *testing.T) {
	pdbBytes, traj := testDataset(t, 150, 3)
	ssd := &listDownFS{FS: vfs.NewMemFS()}
	containers := storeOver(t, ssd, vfs.NewMemFS())
	reg := metrics.NewRegistry()
	allFast := core.Placement{core.TagProtein: "ssd", core.TagMisc: "ssd"}
	ingestPlaced(t, containers, reg, "/ds", allFast, pdbBytes, traj)
	m, err := NewMigrator(core.New(containers, nil, core.Options{Metrics: reg}), containers,
		NewTracker((&virtualClock{}).Now, 0), Config{Fast: "ssd", Slow: "hdd", CapacityBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	ssd.down = true
	rep, err := m.Step()
	if !errors.Is(err, vfs.ErrBackendDown) || len(rep.Demotions) != 0 {
		t.Fatalf("round over a failing walk = %+v, %v; want no moves and ErrBackendDown", rep, err)
	}
	if n := reg.Snapshot().Counters["tier.step_errors"]; n != 1 {
		t.Errorf("tier.step_errors = %d, want 1", n)
	}
	ssd.down = false
	if rep, err := m.Step(); err != nil || len(rep.Demotions) != 2 {
		t.Fatalf("round after the backend returned = %+v, %v; want both subsets demoted", rep, err)
	}
}

func TestMigratorPinFastPromotesCold(t *testing.T) {
	pdbBytes, traj := testDataset(t, 150, 3)
	containers := newStore(t)
	reg := metrics.NewRegistry()
	allSlow := core.Placement{core.TagProtein: "hdd", core.TagMisc: "hdd"}
	ingestPlaced(t, containers, reg, "/ds", allSlow, pdbBytes, traj)
	a := core.New(containers, nil, core.Options{Metrics: reg})
	trk := NewTracker((&virtualClock{}).Now, 0) // no accesses: everything cold
	m, err := NewMigrator(a, containers, trk, Config{
		Fast: "ssd", Slow: "hdd", CapacityBytes: 1 << 30,
		Pins: map[string]Pin{core.TagProtein: PinFast},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Step()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Promotions) != 1 || rep.Promotions[0].Tag != core.TagProtein {
		t.Fatalf("promotions = %+v, want the pinned protein subset only", rep.Promotions)
	}
	if got := subsetBackend(t, containers, "/ds", core.TagMisc); got != "hdd" {
		t.Errorf("cold unpinned subset moved to %s", got)
	}
}

func TestMigratorMaxMovesPerStep(t *testing.T) {
	pdbBytes, traj := testDataset(t, 150, 3)
	containers := newStore(t)
	reg := metrics.NewRegistry()
	allFast := core.Placement{core.TagProtein: "ssd", core.TagMisc: "ssd"}
	ingestPlaced(t, containers, reg, "/ds", allFast, pdbBytes, traj)
	a := core.New(containers, nil, core.Options{Metrics: reg})
	trk := NewTracker((&virtualClock{}).Now, 0)
	m, err := NewMigrator(a, containers, trk, Config{
		Fast: "ssd", Slow: "hdd",
		CapacityBytes: 1, // everything must leave...
		HighWater:     0.9, LowWater: 0.1,
		MaxMovesPerStep: 1, // ...but only one subset per round
	})
	if err != nil {
		t.Fatal(err)
	}
	for round, wantLeft := range []int{1, 0} {
		rep, err := m.Step()
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Demotions) != 1 {
			t.Fatalf("round %d demotions = %+v", round, rep.Demotions)
		}
		left := 0
		for _, tag := range []string{core.TagProtein, core.TagMisc} {
			if subsetBackend(t, containers, "/ds", tag) == "ssd" {
				left++
			}
		}
		if left != wantLeft {
			t.Fatalf("round %d leaves %d subsets on fast, want %d", round, left, wantLeft)
		}
	}
}

func TestNewMigratorValidation(t *testing.T) {
	containers := newStore(t)
	a := core.New(containers, nil, core.Options{Metrics: metrics.NewRegistry()})
	trk := NewTracker((&virtualClock{}).Now, 0)
	ok := Config{Fast: "ssd", Slow: "hdd", CapacityBytes: 1 << 20}
	if _, err := NewMigrator(a, containers, trk, ok); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for name, mutate := range map[string]func(*Config){
		"unknown fast":  func(c *Config) { c.Fast = "nvme" },
		"unknown slow":  func(c *Config) { c.Slow = "tape" },
		"fast == slow":  func(c *Config) { c.Slow = "ssd" },
		"zero capacity": func(c *Config) { c.CapacityBytes = 0 },
		"low > high":    func(c *Config) { c.LowWater = 0.95; c.HighWater = 0.5 },
		"high > 1":      func(c *Config) { c.HighWater = 1.5 },
		// A negative interval would panic the background loop's ticker.
		"negative interval": func(c *Config) { c.Interval = -time.Second },
		"negative max":      func(c *Config) { c.MaxMovesPerStep = -1 },
	} {
		cfg := ok
		mutate(&cfg)
		if _, err := NewMigrator(a, containers, trk, cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestMigratorRunStop drives the background loop on a short interval and
// checks Stop's drain contract (idempotent, safe without Run).
func TestMigratorRunStop(t *testing.T) {
	pdbBytes, traj := testDataset(t, 150, 3)
	containers := newStore(t)
	reg := metrics.NewRegistry()
	allFast := core.Placement{core.TagProtein: "ssd", core.TagMisc: "ssd"}
	ingestPlaced(t, containers, reg, "/ds", allFast, pdbBytes, traj)
	a := core.New(containers, nil, core.Options{Metrics: reg})
	trk := NewTracker((&virtualClock{}).Now, 0)
	m, err := NewMigrator(a, containers, trk, Config{
		Fast: "ssd", Slow: "hdd", CapacityBytes: 1,
		HighWater: 0.9, LowWater: 0.1,
		Interval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Stop() // Stop before Run is a no-op
	m.Run()
	m.Run() // idempotent
	deadline := time.Now().Add(5 * time.Second)
	for reg.Snapshot().Counters["tier.demotions"] < 2 {
		if time.Now().After(deadline) {
			t.Fatal("background loop never drained the fast backend")
		}
		time.Sleep(time.Millisecond)
	}
	m.Stop()
	m.Stop() // idempotent
	steps := reg.Snapshot().Counters["tier.steps"]
	time.Sleep(10 * time.Millisecond)
	if got := reg.Snapshot().Counters["tier.steps"]; got != steps {
		t.Fatalf("loop still stepping after Stop: %d -> %d", steps, got)
	}
	for _, tag := range []string{core.TagProtein, core.TagMisc} {
		if got := subsetBackend(t, containers, "/ds", tag); got != "hdd" {
			t.Errorf("subset.%s still on %s", tag, got)
		}
	}
}
