package bench

import (
	"math"
	"strings"
	"testing"

	"repro/internal/gpcr"
	"repro/internal/platform"
)

func testConfig(t testing.TB) *Config {
	t.Helper()
	// A scaled system keeps the unit tests fast; the shape checks below do
	// not depend on the absolute atom count.
	dm, err := Measure(gpcr.Scaled(10), 6)
	if err != nil {
		t.Fatal(err)
	}
	return &Config{Model: dm, Scale: 20, MeasuredFrames: 60}
}

func TestMeasureModel(t *testing.T) {
	cfg := testConfig(t)
	dm := cfg.Model
	if dm.NAtoms <= 0 || dm.ProteinAtoms <= 0 || dm.ProteinAtoms >= dm.NAtoms {
		t.Fatalf("model atoms = %+v", dm)
	}
	if dm.CompressionRatio() < 2 || dm.CompressionRatio() > 5 {
		t.Errorf("compression ratio = %.2f, want XTC-like ~3x", dm.CompressionRatio())
	}
	if f := dm.ProteinFraction(); f < 0.3 || f > 0.6 {
		t.Errorf("protein fraction = %.2f", f)
	}
	if dm.CompressedProteinPerFrame >= dm.CompressedPerFrame {
		t.Error("protein compressed larger than full compressed")
	}
	c, r, p := dm.Sizes(100)
	if c <= 0 || p <= 0 || r <= c || p >= r {
		t.Errorf("sizes(100) = %d %d %d", c, r, p)
	}
}

func TestAnalyticShapesSSD(t *testing.T) {
	cfg := testConfig(t)
	p, err := platform.NewSSDServer()
	if err != nil {
		t.Fatal(err)
	}
	frames := 5006
	c := RunAnalytic(p, cfg.Model, CBase, frames)
	d := RunAnalytic(p, cfg.Model, DBase, frames)
	all := RunAnalytic(p, cfg.Model, ADAAll, frames)
	prot := RunAnalytic(p, cfg.Model, ADAProtein, frames)

	// Fig 7a: C-ext4 retrieves least; ADA(all) ~ D-ext4; ADA(protein) ~40% of raw.
	if !(c.RetrievalSec < prot.RetrievalSec && prot.RetrievalSec < d.RetrievalSec) {
		t.Errorf("retrieval ordering: C=%.3f p=%.3f D=%.3f", c.RetrievalSec, prot.RetrievalSec, d.RetrievalSec)
	}
	if ratio := all.RetrievalSec / d.RetrievalSec; ratio < 0.9 || ratio > 1.2 {
		t.Errorf("ADA(all)/D retrieval = %.2f, want ~1", ratio)
	}
	// Fig 7b: the paper's headline: C-ext4 turnaround is many times
	// ADA(protein)'s, in the 10-15x band at 5,006 frames.
	speedup := c.Turnaround / prot.Turnaround
	t.Logf("turnaround speedup C vs ADA(protein) at %d frames: %.1fx", frames, speedup)
	if speedup < 8 || speedup > 20 {
		t.Errorf("speedup = %.1fx, want ~13.4x band", speedup)
	}
	// Fig 7c: memory ratio above 2x.
	if ratio := float64(c.MemoryPeak) / float64(prot.MemoryPeak); ratio < 2 {
		t.Errorf("memory ratio = %.2f", ratio)
	}
	// D and ADA(all) share turnaround shape.
	if ratio := all.Turnaround / d.Turnaround; ratio < 0.8 || ratio > 1.2 {
		t.Errorf("ADA(all)/D turnaround = %.2f", ratio)
	}
}

func TestAnalyticShapesCluster(t *testing.T) {
	cfg := testConfig(t)
	p, err := platform.NewSmallCluster()
	if err != nil {
		t.Fatal(err)
	}
	d := RunAnalytic(p, cfg.Model, DBase, 6256)
	all := RunAnalytic(p, cfg.Model, ADAAll, 6256)
	prot := RunAnalytic(p, cfg.Model, ADAProtein, 6256)
	// Fig 9a: ADA(all) reads from the SSD instance: >2x faster than D-PVFS.
	if ratio := d.RetrievalSec / all.RetrievalSec; ratio < 2 {
		t.Errorf("D-PVFS/ADA(all) retrieval = %.2fx, want > 2x", ratio)
	}
	// Fig 9b: D-PVFS turnaround ~9x ADA(protein) at 6,256 frames.
	ratio := d.Turnaround / prot.Turnaround
	t.Logf("cluster turnaround D-PVFS vs ADA(protein): %.1fx", ratio)
	if ratio < 4 || ratio > 20 {
		t.Errorf("turnaround ratio = %.1fx, want the paper's ~9x band", ratio)
	}
}

func TestAnalyticShapesFatNode(t *testing.T) {
	cfg := testConfig(t)
	// Rescale the data model to the paper's full-size frames so the
	// absolute GB volumes land on the Table 6 kill points.
	dmFull, err := Measure(gpcr.Default(), 4)
	if err != nil {
		t.Fatal(err)
	}
	_ = cfg
	p, err := platform.NewFatNode()
	if err != nil {
		t.Fatal(err)
	}
	// 1,564,000 frames: everything survives.
	for _, sc := range fatScenarios {
		if pt := RunAnalytic(p, dmFull, sc, 1564000); pt.Killed {
			t.Errorf("%s killed at 1,564,000 frames", sc)
		}
	}
	// 1,876,800 frames: C and ADA(all) die; ADA(protein) survives.
	if pt := RunAnalytic(p, dmFull, CBase, 1876800); !pt.Killed {
		t.Errorf("C-XFS survived 1,876,800 frames (raw %.0f GB)", dmFull.RawPerFrame*1876800/1e9)
	}
	if pt := RunAnalytic(p, dmFull, ADAAll, 1876800); !pt.Killed {
		t.Error("ADA(all) survived 1,876,800 frames")
	}
	if pt := RunAnalytic(p, dmFull, ADAProtein, 1876800); pt.Killed {
		t.Error("ADA(protein) killed at 1,876,800 frames")
	}
	// 5,004,800 frames: even the protein subset exceeds 1 TB.
	if pt := RunAnalytic(p, dmFull, ADAProtein, 5004800); !pt.Killed {
		t.Error("ADA(protein) survived 5,004,800 frames")
	}
	// Fig 10b: retrieval is a small share of turnaround at large sizes.
	pt := RunAnalytic(p, dmFull, CBase, 1564000)
	if frac := pt.RetrievalSec / pt.Turnaround; frac > 0.10 {
		t.Errorf("retrieval fraction = %.2f, want < 0.10", frac)
	}
	// Fig 10d: XFS energy more than 3x ADA's.
	x := RunAnalytic(p, dmFull, CBase, 1876800)
	a := RunAnalytic(p, dmFull, ADAAll, 1876800)
	pr := RunAnalytic(p, dmFull, ADAProtein, 1876800)
	t.Logf("energy at 1,876,800 frames: XFS=%.0f ADA(all)=%.0f ADA(p)=%.0f kJ",
		x.EnergyKJ, a.EnergyKJ, pr.EnergyKJ)
	// The paper's prose says ">3x"; its own Fig 10d bars at 1,876,800 frames
	// (12,500 vs 5,000 vs 2,200 kJ) are 2.5x vs ADA(all) and 5.7x vs
	// ADA(protein). Hold the bars' shape: >2x vs ADA(all), >3x vs protein.
	if x.EnergyKJ < 2*a.EnergyKJ || x.EnergyKJ < 3*pr.EnergyKJ {
		t.Errorf("XFS energy shape off: %.0f vs %.0f / %.0f", x.EnergyKJ, a.EnergyKJ, pr.EnergyKJ)
	}
}

// TestAnalyticMatchesMeasured pins the analytic engine to the live
// pipeline: at a scale where both can run, the virtual times must agree.
func TestAnalyticMatchesMeasured(t *testing.T) {
	dm, err := Measure(gpcr.Scaled(20), 6)
	if err != nil {
		t.Fatal(err)
	}
	const frames = 300
	for _, sc := range Scenarios {
		p, err := platform.NewSSDServer()
		if err != nil {
			t.Fatal(err)
		}
		ds, err := p.Stage("gpcr", gpcr.Scaled(20), frames)
		if err != nil {
			t.Fatal(err)
		}
		measured, err := RunMeasured(p, ds, sc)
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		analytic := RunAnalytic(p, dm, sc, frames)
		relErr := math.Abs(analytic.Turnaround-measured.Turnaround) / measured.Turnaround
		t.Logf("%-12s measured=%.4fs analytic=%.4fs (%.1f%% off)",
			sc, measured.Turnaround, analytic.Turnaround, 100*relErr)
		if relErr > 0.15 {
			t.Errorf("%s: analytic diverges %.1f%% from measured", sc, 100*relErr)
		}
		memErr := math.Abs(float64(analytic.MemoryPeak-measured.MemoryPeak)) / float64(measured.MemoryPeak)
		if memErr > 0.10 {
			t.Errorf("%s: memory model diverges %.1f%%: analytic %d vs measured %d",
				sc, 100*memErr, analytic.MemoryPeak, measured.MemoryPeak)
		}
	}
}

func TestAllExperimentsRun(t *testing.T) {
	cfg := testConfig(t)
	for _, e := range Experiments {
		tbl, err := e.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if len(tbl.Rows) == 0 {
			t.Errorf("%s: empty table", e.ID)
		}
		out := tbl.Format()
		if !strings.Contains(out, e.ID) {
			t.Errorf("%s: Format missing ID:\n%s", e.ID, out)
		}
	}
}

func TestLookup(t *testing.T) {
	if _, err := Lookup("fig7b"); err != nil {
		t.Error(err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("unknown ID should fail")
	}
}

func TestTableFormat(t *testing.T) {
	tbl := &Table{
		ID:      "t",
		Title:   "demo",
		Columns: []string{"A", "LongColumn"},
		Notes:   []string{"a note"},
	}
	tbl.AddRow("1", "2")
	tbl.AddRow("100000", "3")
	out := tbl.Format()
	for _, want := range []string{"demo", "LongColumn", "100000", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
}

func TestScenarioLabels(t *testing.T) {
	if CBase.Label("ext4") != "C-ext4" || DBase.Label("PVFS") != "D-PVFS" {
		t.Error("baseline labels wrong")
	}
	if ADAProtein.Label("ext4") != string(ADAProtein) {
		t.Error("ADA labels must not take the baseline name")
	}
}
