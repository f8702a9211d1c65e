package tier

import (
	"math"
	"sync"
	"testing"
	"time"
)

// virtualClock is a hand-advanced clock for deterministic decay tests.
type virtualClock struct {
	mu  sync.Mutex
	now float64
}

func (c *virtualClock) Now() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *virtualClock) Advance(d float64) {
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
}

func TestTrackerDecay(t *testing.T) {
	clk := &virtualClock{}
	tr := NewTracker(clk.Now, 10) // heat halves every 10s
	tr.Record("/ds", "subset.p", 1000)
	if got := tr.Heat("/ds", "subset.p"); got != 1000 {
		t.Fatalf("heat at t=0: %g", got)
	}
	clk.Advance(10)
	if got := tr.Heat("/ds", "subset.p"); math.Abs(got-500) > 1e-9 {
		t.Fatalf("heat after one half-life: %g, want 500", got)
	}
	clk.Advance(10)
	if got := tr.Heat("/ds", "subset.p"); math.Abs(got-250) > 1e-9 {
		t.Fatalf("heat after two half-lives: %g, want 250", got)
	}
	// A new access decays the old heat first, then adds.
	tr.Record("/ds", "subset.p", 100)
	if got := tr.Heat("/ds", "subset.p"); math.Abs(got-350) > 1e-9 {
		t.Fatalf("heat after decayed add: %g, want 350", got)
	}
	// Lazy decay is path-independent: observing mid-way changes nothing.
	tr2 := NewTracker(clk.Now, 10)
	tr2.Record("/ds", "subset.p", 1000)
	clk.Advance(5)
	_ = tr2.Heat("/ds", "subset.p") // fold at the half-way point
	clk.Advance(5)
	if got := tr2.Heat("/ds", "subset.p"); math.Abs(got-500) > 1e-9 {
		t.Fatalf("split-fold heat: %g, want 500", got)
	}
}

func TestTrackerNoDecay(t *testing.T) {
	clk := &virtualClock{}
	tr := NewTracker(clk.Now, 0) // halfLife <= 0: no decay
	tr.Record("/ds", "subset.p", 100)
	clk.Advance(1e6)
	tr.Record("/ds", "subset.p", 100)
	if got := tr.Heat("/ds", "subset.p"); got != 200 {
		t.Fatalf("undecayed heat = %g, want 200", got)
	}
}

func TestTrackerIgnoresNonPositive(t *testing.T) {
	tr := NewTracker((&virtualClock{}).Now, 10)
	tr.Record("/ds", "subset.p", 0)
	tr.Record("/ds", "subset.p", -5)
	if tr.Len() != 0 {
		t.Fatalf("tracked %d series after no-op records", tr.Len())
	}
}

func TestWallClockMonotonic(t *testing.T) {
	now := WallClock()
	a := now()
	time.Sleep(time.Millisecond)
	if b := now(); b <= a {
		t.Fatalf("wall clock not monotonic: %g then %g", a, b)
	}
}

func TestTrackerConcurrent(t *testing.T) {
	clk := &virtualClock{}
	tr := NewTracker(clk.Now, 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Record("/ds", "subset.p", 1)
				tr.Heat("/ds", "subset.p")
			}
		}()
	}
	wg.Wait()
	if got := tr.Heat("/ds", "subset.p"); got != 800 {
		t.Fatalf("heat = %g, want 800", got)
	}
}
