package vmd

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/metrics"
	"repro/internal/xtc"
)

// FrameSource provides random access to a trajectory's frames.
// xtc.RandomAccessReader and core.SubsetRandomReader both satisfy it.
type FrameSource interface {
	Frames() int
	ReadFrameAt(i int) (*xtc.Frame, error)
}

// CacheStats reports a FrameCache's behavior over a playback run.
type CacheStats struct {
	Hits        int64
	Misses      int64
	Evictions   int64
	BytesLoaded int64
}

// HitRate returns the fraction of accesses served from memory.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// FrameCache keeps decoded frames in memory under a byte budget with LRU
// eviction — the "recently retrieved frames should be evacuated from the
// limited memory to make room for subsequent phases of frames" mechanism
// the paper's Section 2.1 describes. A cache too small for the working set
// thrashes under back-and-forth replay, which is exactly why ADA's smaller
// protein-only frames keep playback fluent. It is the compute-side
// instantiation of the serve fabric's LRU: one key space (frame numbers),
// no admission veto, every resident byte accounted against the session's
// memory.
type FrameCache struct {
	src   FrameSource
	mem   *Memory
	lru   xtc.FrameLRU[int]
	stats CacheStats
	cm    cacheMetrics
}

// cacheMetrics mirror CacheStats into the runtime registry under
// vmd.cache.* so a long-lived viewer process is observable without polling
// Stats().
type cacheMetrics struct {
	hits      *metrics.Counter
	misses    *metrics.Counter
	evictions *metrics.Counter
	bytes     *metrics.Counter
	resident  *metrics.Gauge // cached frames right now
}

func newCacheMetrics(reg *metrics.Registry) cacheMetrics {
	return cacheMetrics{
		hits:      reg.Counter("vmd.cache.hits"),
		misses:    reg.Counter("vmd.cache.misses"),
		evictions: reg.Counter("vmd.cache.evictions"),
		bytes:     reg.Counter("vmd.cache.bytes_loaded"),
		resident:  reg.Gauge("vmd.cache.resident_frames"),
	}
}

// memPlayback is the memory-accounting label for cached frames.
const memPlayback = "playback-cache"

// NewFrameCache returns a cache over src limited to budget bytes of decoded
// frames, accounted against the session's memory. A budget of 0 means
// "whatever memory remains".
func (s *Session) NewFrameCache(src FrameSource, budget int64) *FrameCache {
	if budget <= 0 {
		budget = math.MaxInt64
	}
	return &FrameCache{
		src: src,
		mem: s.Mem,
		lru: xtc.FrameLRU[int]{Budget: budget},
		cm:  newCacheMetrics(s.metrics),
	}
}

// Stats returns the accumulated cache statistics.
func (c *FrameCache) Stats() CacheStats { return c.stats }

// Len returns the number of cached frames.
func (c *FrameCache) Len() int { return c.lru.Len() }

// Frame returns frame i, loading and caching it on a miss.
func (c *FrameCache) Frame(i int) (*xtc.Frame, error) {
	if f, ok := c.lru.Get(i); ok {
		c.stats.Hits++
		c.cm.hits.Inc()
		return f, nil
	}
	c.stats.Misses++
	c.cm.misses.Inc()
	f, err := c.src.ReadFrameAt(i)
	if err != nil {
		return nil, fmt.Errorf("vmd: playback frame %d: %w", i, err)
	}
	size := xtc.RawFrameSize(f.NAtoms())
	c.stats.BytesLoaded += size
	c.cm.bytes.Add(size)
	if size > c.lru.Budget {
		// Frame larger than the whole budget: serve it uncached.
		return f, nil
	}
	// Evict until the frame fits the budget and the session memory.
	for c.lru.Used()+size > c.lru.Budget && c.evictOldest() {
	}
	for c.mem.Alloc(memPlayback, size) != nil {
		if !c.evictOldest() {
			// Nothing left to evict: hand the frame out uncached rather
			// than failing playback.
			return f, nil
		}
	}
	c.lru.Admit(i, f, size, func(int) bool { return true })
	c.cm.resident.Set(int64(c.lru.Len()))
	return f, nil
}

// evictOldest returns the least recently used frame's bytes to the session
// memory; false when nothing is cached.
func (c *FrameCache) evictOldest() bool {
	_, bytes, ok := c.lru.EvictOldest()
	if !ok {
		return false
	}
	c.mem.Free(memPlayback, bytes)
	c.stats.Evictions++
	c.cm.evictions.Inc()
	c.cm.resident.Set(int64(c.lru.Len()))
	return true
}

// Release drops every cached frame and returns the memory.
func (c *FrameCache) Release() {
	for c.evictOldest() {
	}
}

// ChargeDecompression wraps a random-access reader over a *compressed*
// stream so that every frame load also charges the session's compute-side
// decompression rate for that frame's encoded bytes — the traditional
// playback path, where each cache miss pays decompression again.
func (s *Session) ChargeDecompression(ra *xtc.RandomAccessReader, idx *xtc.Index) FrameSource {
	return &decompressChargedSource{s: s, ra: ra, idx: idx}
}

type decompressChargedSource struct {
	s   *Session
	ra  *xtc.RandomAccessReader
	idx *xtc.Index
}

func (d *decompressChargedSource) Frames() int { return d.ra.Frames() }

func (d *decompressChargedSource) ReadFrameAt(i int) (*xtc.Frame, error) {
	if d.s.cost.DecompressBps > 0 {
		d.s.charge("decompress",
			float64(d.idx.Size(i))/(d.s.cost.DecompressBps*d.s.cost.factor()))
	}
	return d.ra.ReadFrameAt(i)
}

// Playback access patterns (Section 2.1: biologists replay "back and
// forth"; random access is the worst case for the cache).

// Sequential plays 0..frames-1 once.
func Sequential(frames int) []int {
	out := make([]int, frames)
	for i := range out {
		out[i] = i
	}
	return out
}

// BackAndForth sweeps forward then backward, `sweeps` times.
func BackAndForth(frames, sweeps int) []int {
	var out []int
	for s := 0; s < sweeps; s++ {
		if s%2 == 0 {
			for i := 0; i < frames; i++ {
				out = append(out, i)
			}
		} else {
			for i := frames - 1; i >= 0; i-- {
				out = append(out, i)
			}
		}
	}
	return out
}

// RandomAccess plays n uniformly random frames.
func RandomAccess(frames, n int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, n)
	for i := range out {
		out[i] = rng.Intn(frames)
	}
	return out
}

// PlayStats summarizes one playback run.
type PlayStats struct {
	FramesShown int
	Cache       CacheStats
	// StallSec is the virtual time spent loading misses — the pauses a
	// viewer perceives as non-fluent animation.
	StallSec float64
	// RenderSec is the virtual time spent rebuilding graphics.
	RenderSec float64
}

// PlayThrough renders the frames named by pattern straight through a shared
// FrameSource — typically a serve fabric handle — instead of a session-owned
// FrameCache. Under multi-tenant serving the fabric owns residency,
// admission, and fair-share scheduling; the session is just a consumer, so
// all source time is attributed to stalls and the render charge stays
// per-frame as in Play.
func (s *Session) PlayThrough(src FrameSource, pattern []int) (PlayStats, error) {
	return s.play(func(i int) (*xtc.Frame, error) {
		f, err := src.ReadFrameAt(i)
		if err != nil {
			return nil, fmt.Errorf("vmd: playback frame %d: %w", i, err)
		}
		return f, nil
	}, pattern)
}

// Play renders the frames named by pattern through the cache, charging
// render time per displayed frame and attributing miss-loading time to
// stalls (a hit moves no virtual clock, so it adds none).
func (s *Session) Play(cache *FrameCache, pattern []int) (PlayStats, error) {
	st, err := s.play(cache.Frame, pattern)
	if err == nil {
		st.Cache = cache.Stats()
	}
	return st, err
}

// play is the one playback loop: read, time the read as stall, render.
func (s *Session) play(read func(i int) (*xtc.Frame, error), pattern []int) (PlayStats, error) {
	var st PlayStats
	for _, i := range pattern {
		var before float64
		if s.env != nil {
			before = s.env.Clock.Now()
		}
		f, err := read(i)
		if err != nil {
			return st, err
		}
		if s.env != nil {
			st.StallSec += s.env.Clock.Now() - before
		}
		renderSec := float64(f.NAtoms()) * s.cost.RenderSecPerAtomFrame / s.cost.factor()
		s.charge("render", renderSec)
		st.RenderSec += renderSec
		st.FramesShown++
	}
	return st, nil
}
