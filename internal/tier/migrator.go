package tier

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/plfs"
)

// Config parameterizes the migration planner. Fast/Slow name two of the
// store's backends; CapacityBytes bounds the fast backend (MemFS mounts
// have no physical capacity, so the budget is explicit). Watermarks are
// fractions of CapacityBytes: when fast usage exceeds HighWater the planner
// demotes coldest-first until usage falls to LowWater, and promotions only
// run while they keep usage under HighWater.
type Config struct {
	Fast            string
	Slow            string
	CapacityBytes   int64
	HighWater       float64        // demotion trigger (fraction of cap; default 0.9)
	LowWater        float64        // demotion target (fraction of cap; default 0.7)
	PromoteHeat     float64        // min decayed heat to promote (default 1 byte)
	HalfLife        float64        // heat half-life in seconds (default 60)
	Interval        time.Duration  // background planning period (default 5s)
	MaxMovesPerStep int            // cap on migrations per Step (0 = unlimited)
	Pins            map[string]Pin // per-tag overrides, across datasets
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.HighWater == 0 {
		c.HighWater = 0.9
	}
	if c.LowWater == 0 {
		c.LowWater = 0.7
	}
	if c.PromoteHeat == 0 {
		c.PromoteHeat = 1
	}
	if c.HalfLife == 0 {
		c.HalfLife = 60
	}
	if c.Interval == 0 {
		c.Interval = 5 * time.Second
	}
	return c
}

// validate checks the fields that do not depend on the store's backends.
func (c Config) validate() error {
	if c.CapacityBytes <= 0 {
		return fmt.Errorf("tier: capacity (cap=) must be positive (got %d)", c.CapacityBytes)
	}
	// Written so that NaN, for which every comparison is false, fails it.
	if !(0 < c.LowWater && c.LowWater <= c.HighWater && c.HighWater <= 1) {
		return fmt.Errorf("tier: watermarks must satisfy 0 < low <= high <= 1 (got low=%g high=%g)",
			c.LowWater, c.HighWater)
	}
	if c.Interval < 0 || c.MaxMovesPerStep < 0 {
		return fmt.Errorf("tier: interval and max must not be negative (got %v, %d)",
			c.Interval, c.MaxMovesPerStep)
	}
	return nil
}

// Candidate is one subset the planner considers moving.
type Candidate struct {
	Logical string
	Tag     string
	Backend string  // current owner (plfs index truth)
	Bytes   int64   // payload + frame-index bytes a move would copy
	Heat    float64 // decayed heat from the tracker
}

// Move records one executed migration.
type Move struct {
	Logical string
	Tag     string
	From    string
	To      string
	Bytes   int64
}

// StepReport summarizes one planning round.
type StepReport struct {
	Demotions  []Move
	Promotions []Move
	BytesMoved int64
	FastUsage  int64 // fast-backend bytes after the round
}

// migratorMetrics publishes the subsystem's counters under tier.*.
type migratorMetrics struct {
	steps      *metrics.Counter // tier.steps: planning rounds run
	stepErrors *metrics.Counter // tier.step_errors: rounds that hit an error
	promotions *metrics.Counter // tier.promotions: subsets moved to fast
	demotions  *metrics.Counter // tier.demotions: subsets moved off fast
	bytesMoved *metrics.Counter // tier.bytes_moved: payload+index bytes copied
	fastUsage  *metrics.Gauge   // tier.fast_usage_bytes: fast backend occupancy
	capacity   *metrics.Gauge   // tier.capacity_bytes: configured fast budget
	overHigh   *metrics.Gauge   // tier.over_high_watermark: 1 while usage > high
	tracked    *metrics.Gauge   // tier.tracked_droppings: heat series held
}

func newMigratorMetrics(reg *metrics.Registry) migratorMetrics {
	return migratorMetrics{
		steps:      reg.Counter("tier.steps"),
		stepErrors: reg.Counter("tier.step_errors"),
		promotions: reg.Counter("tier.promotions"),
		demotions:  reg.Counter("tier.demotions"),
		bytesMoved: reg.Counter("tier.bytes_moved"),
		fastUsage:  reg.Gauge("tier.fast_usage_bytes"),
		capacity:   reg.Gauge("tier.capacity_bytes"),
		overHigh:   reg.Gauge("tier.over_high_watermark"),
		tracked:    reg.Gauge("tier.tracked_droppings"),
	}
}

// Migrator plans and executes dropping migrations between two backends from
// the heat a Tracker has accumulated. Step runs one deterministic planning
// round; Run/Stop wrap it in a background loop with graceful drain (an
// in-flight round finishes before Stop returns, so a migration is never
// torn by shutdown — only by a crash, which recovery repairs).
type Migrator struct {
	a   *core.ADA
	fs  *plfs.FS
	tr  *Tracker
	cfg Config
	mm  migratorMetrics

	mu   sync.Mutex // serializes Step against itself and Stop
	stop chan struct{}
	done chan struct{}
}

// NewMigrator validates cfg against the store's backends and returns a
// planner ranking subsets by the heat tr has accumulated.
func NewMigrator(a *core.ADA, fs *plfs.FS, tr *Tracker, cfg Config) (*Migrator, error) {
	cfg = cfg.withDefaults()
	names := map[string]bool{}
	for _, n := range fs.Backends() {
		names[n] = true
	}
	if !names[cfg.Fast] {
		return nil, fmt.Errorf("tier: unknown fast backend %q", cfg.Fast)
	}
	if !names[cfg.Slow] {
		return nil, fmt.Errorf("tier: unknown slow backend %q", cfg.Slow)
	}
	if cfg.Fast == cfg.Slow {
		return nil, fmt.Errorf("tier: fast and slow are both %q", cfg.Fast)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m := &Migrator{a: a, fs: fs, tr: tr, cfg: cfg, mm: newMigratorMetrics(a.Metrics())}
	m.mm.capacity.Set(cfg.CapacityBytes)
	return m, nil
}

// Config returns the effective (defaulted) configuration.
func (m *Migrator) Config() Config { return m.cfg }

// candidates lists every subset of every committed dataset with its current
// owner (plfs index truth, not the advisory manifest), movable byte count,
// and decayed heat. A dataset whose index names no manifest is still being
// ingested, live or interrupted, and is left alone. Sorted by (logical, tag)
// for deterministic planning.
func (m *Migrator) candidates() ([]Candidate, error) {
	datasets, err := m.a.Datasets()
	if err != nil {
		return nil, err
	}
	sort.Strings(datasets)
	var out []Candidate
	for _, logical := range datasets {
		idx, err := m.fs.Index(logical)
		if err != nil {
			return nil, fmt.Errorf("tier: index %s: %w", logical, err)
		}
		sizes := map[string]int64{}
		for _, d := range idx {
			sizes[d.Name] = d.Size
		}
		if _, committed := sizes[core.ManifestDropping]; !committed {
			continue
		}
		for _, d := range idx {
			tag, ok := core.SubsetTag(d.Name)
			if !ok {
				continue
			}
			out = append(out, Candidate{
				Logical: logical,
				Tag:     tag,
				Backend: d.Backend,
				Bytes:   d.Size + sizes[core.IndexDropping(tag)],
				Heat:    m.tr.Heat(logical, d.Name),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Logical != out[j].Logical {
			return out[i].Logical < out[j].Logical
		}
		return out[i].Tag < out[j].Tag
	})
	return out, nil
}

// Step runs one planning round: demote coldest-first while the fast backend
// is over the high watermark (down to the low watermark), then promote
// hottest-first while promotions fit under the high watermark. Each move is
// executed crash-safely through core.MoveSubset and the fast backend is
// walked again before the next is planned, so usage numbers stay truthful
// mid-round. A round that fails (a move, or a walk) ends there, counted under
// tier.step_errors, and leaves the usage gauges as the last clean round set
// them. Deterministic given the tracker's clock and the store's contents.
func (m *Migrator) Step() (*StepReport, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.mm.steps.Inc()
	rep, err := m.step()
	if err != nil {
		m.mm.stepErrors.Inc()
	} else {
		m.mm.fastUsage.Set(rep.FastUsage)
		high := int64(m.cfg.HighWater * float64(m.cfg.CapacityBytes))
		if rep.FastUsage > high {
			m.mm.overHigh.Set(1)
		} else {
			m.mm.overHigh.Set(0)
		}
	}
	m.mm.tracked.Set(int64(m.tr.Len()))
	return rep, err
}

func (m *Migrator) step() (*StepReport, error) {
	rep := &StepReport{}
	var err error
	if rep.FastUsage, err = m.fs.UsageOf(m.cfg.Fast); err != nil {
		return rep, fmt.Errorf("tier: %w", err)
	}
	cands, err := m.candidates()
	if err != nil {
		return rep, err
	}
	high := int64(m.cfg.HighWater * float64(m.cfg.CapacityBytes))
	low := int64(m.cfg.LowWater * float64(m.cfg.CapacityBytes))
	moves := 0
	budget := func() bool {
		return m.cfg.MaxMovesPerStep <= 0 || moves < m.cfg.MaxMovesPerStep
	}
	// move migrates c to the other backend, then walks the fast backend
	// again so the next decision sees what the move freed or took.
	move := func(c Candidate, to string, done *[]Move, count *metrics.Counter) error {
		n, err := m.a.MoveSubset(c.Logical, c.Tag, to)
		if err == nil {
			rep.FastUsage, err = m.fs.UsageOf(m.cfg.Fast)
		}
		if err != nil {
			return fmt.Errorf("tier: move %s/%s to %s: %w", c.Logical, c.Tag, to, err)
		}
		moves++
		*done = append(*done, Move{Logical: c.Logical, Tag: c.Tag, From: c.Backend, To: to, Bytes: n})
		rep.BytesMoved += n
		count.Inc()
		m.mm.bytesMoved.Add(n)
		return nil
	}

	// Demotion: triggered above the high watermark, drains to the low one.
	if rep.FastUsage > high {
		onFast := filter(cands, func(c Candidate) bool {
			return c.Backend == m.cfg.Fast && m.cfg.Pins[c.Tag] == PinNone
		})
		// Coldest first; among equals, biggest first frees space fastest.
		sort.SliceStable(onFast, func(i, j int) bool {
			if hi, hj := onFast[i].Heat, onFast[j].Heat; hi != hj {
				return hi < hj
			}
			return onFast[i].Bytes > onFast[j].Bytes
		})
		for _, c := range onFast {
			if rep.FastUsage <= low || !budget() {
				break
			}
			if err := move(c, m.cfg.Slow, &rep.Demotions, m.mm.demotions); err != nil {
				return rep, err
			}
		}
	}

	// Promotion: hottest eligible subsets move to fast while they fit under
	// the high watermark (never past it — promotion must not trigger the
	// demotion it just paid for).
	offFast := filter(cands, func(c Candidate) bool {
		if c.Backend == m.cfg.Fast {
			return false
		}
		switch m.cfg.Pins[c.Tag] {
		case PinNever:
			return false
		case PinFast:
			return true
		}
		return c.Heat >= m.cfg.PromoteHeat
	})
	sort.SliceStable(offFast, func(i, j int) bool {
		// Pinned-to-fast candidates lead; then by heat descending.
		pi, pj := m.cfg.Pins[offFast[i].Tag] == PinFast, m.cfg.Pins[offFast[j].Tag] == PinFast
		if pi != pj {
			return pi
		}
		return offFast[i].Heat > offFast[j].Heat
	})
	for _, c := range offFast {
		if !budget() {
			break
		}
		if rep.FastUsage+c.Bytes > high {
			continue // try a smaller candidate further down the ranking
		}
		if err := move(c, m.cfg.Fast, &rep.Promotions, m.mm.promotions); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

func filter(cands []Candidate, keep func(Candidate) bool) []Candidate {
	var out []Candidate
	for _, c := range cands {
		if keep(c) {
			out = append(out, c)
		}
	}
	return out
}

// Run starts the background planning loop on the configured interval.
// Errors inside a round are counted (tier.step_errors) and the loop keeps
// going — a backend that is down this round may be back the next.
func (m *Migrator) Run() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stop != nil {
		return // already running
	}
	m.stop = make(chan struct{})
	m.done = make(chan struct{})
	stop, done := m.stop, m.done
	go func() {
		defer close(done)
		t := time.NewTicker(m.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				m.Step()
			}
		}
	}()
}

// Stop drains the background loop: a round in flight completes its current
// migration sequence before Stop returns. Idempotent; safe without Run.
func (m *Migrator) Stop() {
	m.mu.Lock()
	stop, done := m.stop, m.done
	m.stop, m.done = nil, nil
	m.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// SubsetPlacement is one row of a tier report.
type SubsetPlacement struct {
	Logical string
	Tag     string
	Backend string
	Bytes   int64
	Heat    float64
	Pin     Pin
}

// Report describes the store's current tiering state for operators
// (`adactl tier`): per-backend usage plus every subset's placement and heat.
type Report struct {
	Usage     map[string]int64
	Capacity  int64
	FastUsage int64
	Fast      string
	Slow      string
	Subsets   []SubsetPlacement
}

// Report snapshots placements and heat without moving anything.
func (m *Migrator) Report() (*Report, error) {
	cands, err := m.candidates()
	if err != nil {
		return nil, err
	}
	r := &Report{
		Usage:    map[string]int64{},
		Capacity: m.cfg.CapacityBytes,
		Fast:     m.cfg.Fast,
		Slow:     m.cfg.Slow,
	}
	for _, name := range m.fs.Backends() {
		if r.Usage[name], err = m.fs.UsageOf(name); err != nil {
			return nil, fmt.Errorf("tier: %w", err)
		}
	}
	r.FastUsage = r.Usage[m.cfg.Fast]
	for _, c := range cands {
		r.Subsets = append(r.Subsets, SubsetPlacement{
			Logical: c.Logical,
			Tag:     c.Tag,
			Backend: c.Backend,
			Bytes:   c.Bytes,
			Heat:    c.Heat,
			Pin:     m.cfg.Pins[c.Tag],
		})
	}
	return r, nil
}
