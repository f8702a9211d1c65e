package tier

import (
	"io"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/vfs"
)

// benchStore stages one ingested dataset and returns an ADA instance
// serving it. With trk set, the instance reads through backends wrapped in
// HeatFS, the way a tiering node serves them.
func benchStore(b *testing.B, scale, frames int, trk *Tracker) *core.ADA {
	b.Helper()
	pdbBytes, traj := testDataset(b, scale, frames)
	ssd, hdd := vfs.NewMemFS(), vfs.NewMemFS()
	reg := metrics.NewRegistry()
	ingestPlaced(b, storeOver(b, ssd, hdd), reg, "/ds",
		core.Placement{core.TagProtein: "ssd", core.TagMisc: "hdd"}, pdbBytes, traj)
	served := storeOver(b, ssd, hdd)
	if trk != nil {
		served = heatedStore(b, ssd, hdd, trk)
	}
	return core.New(served, nil, core.Options{Metrics: reg})
}

// BenchmarkMigrationThroughput measures the full crash-safe move pipeline —
// source verify, staged copy, read-back verify, atomic publish, manifest
// rewrite — by bouncing one protein subset between the two backends.
func BenchmarkMigrationThroughput(b *testing.B) {
	a := benchStore(b, 20, 8, nil)
	targets := [2]string{"hdd", "ssd"}
	n, err := a.MoveSubset("/ds", core.TagProtein, targets[0])
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.MoveSubset("/ds", core.TagProtein, targets[(i+1)%2]); err != nil {
			b.Fatal(err)
		}
	}
}

// streamSubset reads every frame of the protein subset once.
func streamSubset(b *testing.B, a *core.ADA) int {
	b.Helper()
	sr, err := a.OpenSubset("/ds", core.TagProtein)
	if err != nil {
		b.Fatal(err)
	}
	defer sr.Close()
	frames := 0
	for {
		if _, err := sr.ReadFrame(); err == io.EOF {
			return frames
		} else if err != nil {
			b.Fatal(err)
		}
		frames++
	}
}

// BenchmarkReadNoHeatFS is the baseline for BenchmarkReadWithHeatFS: the
// same streaming read over unwrapped backends.
func BenchmarkReadNoHeatFS(b *testing.B) {
	a := benchStore(b, 20, 8, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		streamSubset(b, a)
	}
}

// BenchmarkReadWithHeatFS streams through HeatFS-wrapped backends feeding a
// live tracker, the configuration every served read pays once tiering is
// on. Compare ns/op against BenchmarkReadNoHeatFS: the delta is the heat
// tax (budget: under 2%, asserted structurally by TestHeatHookReadTax).
func BenchmarkReadWithHeatFS(b *testing.B) {
	a := benchStore(b, 20, 8, NewTracker(WallClock(), 60))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		streamSubset(b, a)
	}
}

// TestHeatHookReadTax pins the <2% read-tax budget without a flaky
// wall-clock A/B: HeatFS adds exactly one Tracker.Record per payload ReadAt,
// one per frame fetched, so the tax is Record's cost over the frame fetch's
// cost. Record
// is a map probe plus a few float ops (~100ns); a frame fetch decodes and
// checksum-verifies kilobytes. The ratio holds with an order of magnitude
// to spare, so the assertion survives loaded CI machines.
func TestHeatHookReadTax(t *testing.T) {
	if testing.Short() {
		t.Skip("timing measurement")
	}
	// Scaled(10) is a ~4.3k-atom system — small for a real trajectory, so
	// the measured frame-fetch cost (the tax's denominator) is conservative.
	pdbBytes, traj := testDataset(t, 10, 8)
	containers := newStore(t)
	reg := metrics.NewRegistry()
	ingestPlaced(t, containers, reg, "/ds",
		core.Placement{core.TagProtein: "ssd", core.TagMisc: "hdd"}, pdbBytes, traj)
	a := core.New(containers, nil, core.Options{Metrics: reg})

	// Per-frame fetch cost: best of several full streams (min filters
	// scheduler noise).
	frameCost := time.Duration(1 << 62)
	var frames int
	for trial := 0; trial < 5; trial++ {
		start := time.Now()
		sr, err := a.OpenSubset("/ds", core.TagProtein)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for {
			if _, err := sr.ReadFrame(); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
			n++
		}
		sr.Close()
		if d := time.Since(start) / time.Duration(n); d < frameCost {
			frameCost, frames = d, n
		}
	}
	if frames == 0 {
		t.Fatal("no frames streamed")
	}

	// Per-access Record cost, same treatment.
	trk := NewTracker(WallClock(), 60)
	const records = 200_000
	recordCost := time.Duration(1 << 62)
	for trial := 0; trial < 5; trial++ {
		start := time.Now()
		for i := 0; i < records; i++ {
			trk.Record("/ds", "subset.p", 1024)
		}
		if d := time.Since(start) / records; d < recordCost {
			recordCost = d
		}
	}

	tax := float64(recordCost) / float64(frameCost)
	t.Logf("frame fetch %v, heat record %v, read tax %.3f%%", frameCost, recordCost, 100*tax)
	if tax >= 0.02 {
		t.Fatalf("heat recording costs %.2f%% of a frame fetch, budget is 2%%", 100*tax)
	}
}
