// Package tier adds heat-driven tiering to the container store: it tracks
// per-dropping access heat from the bytes a storage node serves (HeatFS)
// and runs a background migration planner that promotes hot droppings to
// the fast backend and demotes cold ones when the fast backend fills past a
// high watermark.
//
// The paper's placement decision (protein subset to the SSD, MISC to the
// HDD) is static — made once at ingest from the schema. Tiering makes it
// dynamic: whatever the biologist actually replays becomes hot and earns
// the fast mount, and datasets that fall out of use drain back to capacity
// storage. Migrations reuse the durability primitives of the ingest commit
// protocol (staged copy, whole-stream verification, atomic index re-point),
// so a crash at any point leaves exactly one complete copy of every
// dropping.
package tier

import (
	"math"
	"sync"
	"time"
)

// Key identifies one dropping's heat series.
type Key struct {
	Logical  string // dataset (container) name
	Dropping string // dropping name, e.g. "subset.p"
}

// Tracker aggregates read-path accesses into per-dropping heat with
// exponential decay: an access adds its byte count, and heat halves every
// HalfLife seconds of the supplied clock. Decay is folded in lazily at
// observation time, so an idle tracker costs nothing and heat depends only
// on the access/clock sequence — deterministic under a virtual clock.
//
// A storage node feeds it through HeatFS; the serve fabric keeps its own
// for cache admission. It is safe for concurrent use.
type Tracker struct {
	mu       sync.Mutex
	now      func() float64
	halfLife float64
	heat     map[Key]*cell
	// One-entry lookup cache: Record runs on every payload read and
	// playback hammers a single dropping, so skipping the map's two string
	// hashes on consecutive same-key accesses keeps the read tax down.
	lastKey  Key
	lastCell *cell
}

type cell struct {
	heat float64
	last float64 // clock reading when heat was last folded
}

// NewTracker returns a tracker reading time (in seconds) from now and
// halving heat every halfLife seconds. A non-positive halfLife disables
// decay: heat is then a plain byte count.
func NewTracker(now func() float64, halfLife float64) *Tracker {
	return &Tracker{now: now, halfLife: halfLife, heat: map[Key]*cell{}}
}

// WallClock returns a monotonic wall-clock suitable for NewTracker in a
// live process; tests use a sim.Clock's Now instead.
func WallClock() func() float64 {
	start := time.Now()
	return func() float64 { return time.Since(start).Seconds() }
}

// decayTo folds decay into c up to clock reading at. Folds shorter than a
// millionth of the half-life are deferred — Exp2 is Record's costliest
// instruction and 2^-dt/h is 1 to nine digits there; keeping c.last anchored
// means the deferred interval still decays in full at the next real fold, so
// nothing is lost, only batched.
func (t *Tracker) decayTo(c *cell, at float64) {
	dt := at - c.last
	if dt <= 0 {
		return
	}
	if t.halfLife > 0 && c.heat > 0 {
		if dt < t.halfLife*1e-6 {
			return
		}
		c.heat *= math.Exp2(-dt / t.halfLife)
	}
	c.last = at
}

// Record observes one access: the dropping's heat gains `bytes` after decay
// up to the current clock.
func (t *Tracker) Record(logical, dropping string, bytes int64) {
	if bytes <= 0 {
		return
	}
	at := t.now()
	k := Key{Logical: logical, Dropping: dropping}
	t.mu.Lock()
	c := t.lastCell
	if c == nil || t.lastKey != k {
		c = t.heat[k]
		if c == nil {
			c = &cell{last: at}
			t.heat[k] = c
		}
		t.lastKey, t.lastCell = k, c
	}
	t.decayTo(c, at)
	c.heat += float64(bytes)
	t.mu.Unlock()
}

// Heat returns the dropping's decayed heat as of the current clock.
func (t *Tracker) Heat(logical, dropping string) float64 {
	at := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.heat[Key{Logical: logical, Dropping: dropping}]
	if c == nil {
		return 0
	}
	t.decayTo(c, at)
	return c.heat
}

// Len returns the number of droppings with recorded heat.
func (t *Tracker) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.heat)
}
