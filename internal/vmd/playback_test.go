package vmd

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/xtc"
)

// playbackFixture stages an ingested dataset and returns random-access
// sources for the traditional compressed path and the ADA protein path.
func playbackFixture(t *testing.T, frames int) (*fixture, *xtc.RandomAccessReader, *xtc.Index) {
	t.Helper()
	fx := newFixture(t, 300, frames, nil)
	idx, err := xtc.BuildIndex(bytes.NewReader(fx.traj), int64(len(fx.traj)))
	if err != nil {
		t.Fatal(err)
	}
	return fx, xtc.NewRandomAccessReader(bytes.NewReader(fx.traj), idx), idx
}

func TestPatterns(t *testing.T) {
	if got := Sequential(3); len(got) != 3 || got[2] != 2 {
		t.Errorf("Sequential = %v", got)
	}
	baf := BackAndForth(3, 2)
	want := []int{0, 1, 2, 2, 1, 0}
	if len(baf) != len(want) {
		t.Fatalf("BackAndForth = %v", baf)
	}
	for i := range want {
		if baf[i] != want[i] {
			t.Errorf("BackAndForth = %v, want %v", baf, want)
		}
	}
	ra := RandomAccess(10, 50, 1)
	if len(ra) != 50 {
		t.Fatalf("RandomAccess len = %d", len(ra))
	}
	for _, i := range ra {
		if i < 0 || i >= 10 {
			t.Fatalf("RandomAccess out of range: %d", i)
		}
	}
	// Deterministic per seed.
	rb := RandomAccess(10, 50, 1)
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatal("RandomAccess not deterministic")
		}
	}
}

func TestCacheHitsAndEviction(t *testing.T) {
	_, src, _ := playbackFixture(t, 8)
	s := NewSession(nil, 0, ComputeCost{})
	// Budget for exactly 3 frames.
	f0, err := src.ReadFrameAt(0)
	if err != nil {
		t.Fatal(err)
	}
	budget := 3 * xtc.RawFrameSize(f0.NAtoms())
	cache := s.NewFrameCache(src, budget)

	// Touch 0,1,2 (3 misses), re-touch them (3 hits), then 3 evicts the LRU.
	for _, i := range []int{0, 1, 2} {
		if _, err := cache.Frame(i); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range []int{0, 1, 2} {
		if _, err := cache.Frame(i); err != nil {
			t.Fatal(err)
		}
	}
	if st := cache.Stats(); st.Hits != 3 || st.Misses != 3 {
		t.Errorf("stats = %+v", st)
	}
	if _, err := cache.Frame(3); err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Evictions != 1 || cache.Len() != 3 {
		t.Errorf("after eviction: %+v len=%d", st, cache.Len())
	}
	// Frame 0 was the LRU (oldest untouched); it must miss now.
	if _, err := cache.Frame(0); err != nil {
		t.Fatal(err)
	}
	if got := cache.Stats().Misses; got != 5 {
		t.Errorf("misses = %d, want 5", got)
	}
	// Session memory is accounted and released.
	if s.Mem.Used() == 0 {
		t.Error("cache frames not accounted")
	}
	cache.Release()
	if s.Mem.Used() != 0 {
		t.Errorf("memory after Release = %d", s.Mem.Used())
	}
}

func TestCacheBudgetLargerThanWorkingSet(t *testing.T) {
	_, src, _ := playbackFixture(t, 6)
	s := NewSession(nil, 0, ComputeCost{})
	cache := s.NewFrameCache(src, 1<<30)
	pattern := BackAndForth(6, 4)
	st, err := s.Play(cache, pattern)
	if err != nil {
		t.Fatal(err)
	}
	if st.FramesShown != len(pattern) {
		t.Errorf("shown = %d", st.FramesShown)
	}
	// Only the first sweep misses.
	if st.Cache.Misses != 6 {
		t.Errorf("misses = %d, want 6", st.Cache.Misses)
	}
	if st.Cache.HitRate() < 0.7 {
		t.Errorf("hit rate = %.2f", st.Cache.HitRate())
	}
}

func TestCacheThrashingUnderTightBudget(t *testing.T) {
	_, src, _ := playbackFixture(t, 8)
	s := NewSession(nil, 0, ComputeCost{})
	f0, _ := src.ReadFrameAt(0)
	cache := s.NewFrameCache(src, 2*xtc.RawFrameSize(f0.NAtoms()))
	st, err := s.Play(cache, BackAndForth(8, 4))
	if err != nil {
		t.Fatal(err)
	}
	// Back-and-forth over a working set 4x the cache: nearly every access
	// at the far ends misses (the paper's "low data hit rate").
	if st.Cache.HitRate() > 0.4 {
		t.Errorf("hit rate = %.2f, expected thrashing", st.Cache.HitRate())
	}
}

func TestADASubsetPlaybackFitsWhereFullFramesThrash(t *testing.T) {
	// The §2.1 motivation quantified: with the same memory budget, ADA's
	// protein-only frames (≈42% the size) fit entirely while full frames
	// thrash.
	fx := newFixture(t, 300, 10, nil)
	idx, err := xtc.BuildIndex(bytes.NewReader(fx.rawTraj), int64(len(fx.rawTraj)))
	if err != nil {
		t.Fatal(err)
	}
	fullSrc := xtc.NewRandomAccessReader(bytes.NewReader(fx.rawTraj), idx)

	sub, err := fx.ada.OpenSubsetAt("/traj.xtc", core.TagProtein)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	full0, _ := fullSrc.ReadFrameAt(0)
	budget := 5 * xtc.RawFrameSize(full0.NAtoms()) // half the full working set

	s := NewSession(nil, 0, ComputeCost{})
	fullCache := s.NewFrameCache(fullSrc, budget)
	fullStats, err := s.Play(fullCache, BackAndForth(10, 6))
	if err != nil {
		t.Fatal(err)
	}
	fullCache.Release()

	subCache := s.NewFrameCache(sub, budget)
	subStats, err := s.Play(subCache, BackAndForth(10, 6))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("same %d-byte budget: full frames hit rate %.2f, ADA protein %.2f",
		budget, fullStats.Cache.HitRate(), subStats.Cache.HitRate())
	if subStats.Cache.HitRate() <= fullStats.Cache.HitRate() {
		t.Errorf("ADA subset (%.2f) should out-hit full frames (%.2f)",
			subStats.Cache.HitRate(), fullStats.Cache.HitRate())
	}
	if subStats.Cache.Misses != 10 {
		t.Errorf("ADA subset misses = %d, want one cold pass", subStats.Cache.Misses)
	}
}

func TestPlayChargesRenderAndStalls(t *testing.T) {
	fx := newFixture(t, 300, 6, sim.NewEnv())
	_ = fx
	env := sim.NewEnv()
	s := NewSession(env, 0, ComputeCost{})
	idx, err := xtc.BuildIndex(bytes.NewReader(fx.traj), int64(len(fx.traj)))
	if err != nil {
		t.Fatal(err)
	}
	ra := xtc.NewRandomAccessReader(bytes.NewReader(fx.traj), idx)
	// Compressed source: every miss charges decompression -> stalls.
	src := s.ChargeDecompression(ra, idx)
	cache := s.NewFrameCache(src, 1<<30)
	st, err := s.Play(cache, BackAndForth(6, 2))
	if err != nil {
		t.Fatal(err)
	}
	if st.StallSec <= 0 {
		t.Error("compressed playback should stall on misses")
	}
	if st.RenderSec <= 0 || env.Profile.Get("compute.cpu.render") <= 0 {
		t.Error("render not charged")
	}
	if env.Profile.Get("compute.cpu.decompress") <= 0 {
		t.Error("decompress not charged")
	}
	// Second run over a warm cache: no new stalls.
	st2, err := s.Play(cache, Sequential(6))
	if err != nil {
		t.Fatal(err)
	}
	if st2.StallSec != 0 || st2.Cache.Misses != st.Cache.Misses {
		t.Errorf("warm run stalled: %+v", st2)
	}
}

// TestFrameCacheUsedBytesCounter pins the cache's byte accounting: across
// misses, evictions, and a full release, what the LRU says it holds, what
// the session memory was charged for it, and frames × frame size agree.
func TestFrameCacheUsedBytesCounter(t *testing.T) {
	_, src, _ := playbackFixture(t, 8)
	s := NewSession(nil, 0, ComputeCost{})
	f0, err := src.ReadFrameAt(0)
	if err != nil {
		t.Fatal(err)
	}
	size := xtc.RawFrameSize(f0.NAtoms())
	cache := s.NewFrameCache(src, 3*size)
	check := func(when string) {
		t.Helper()
		var charged int64
		for _, l := range s.Mem.Labels() {
			if l.Label == memPlayback {
				charged = l.Bytes
			}
		}
		want := int64(cache.Len()) * size
		if got := cache.lru.Used(); got != want || charged != want {
			t.Fatalf("%s: lru holds %d bytes, memory charged %d, %d frames make %d",
				when, got, charged, cache.Len(), want)
		}
	}
	check("empty")
	for _, i := range BackAndForth(8, 3) {
		if _, err := cache.Frame(i); err != nil {
			t.Fatal(err)
		}
		check("during playback")
	}
	if cache.Stats().Evictions == 0 {
		t.Fatal("fixture never evicted; counter path untested")
	}
	cache.Release()
	check("after release")
	if cache.Len() != 0 {
		t.Errorf("released cache holds %d frames", cache.Len())
	}
}
