package bench

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/gpcr"
	"repro/internal/platform"
)

// Frame-count series used in the paper.
var (
	// SSDFrames is the Section 4.1 / Table 2 series.
	SSDFrames = []int{626, 1251, 1877, 2503, 3129, 3754, 4380, 5006}
	// ClusterFrames extends the series to Fig 9's 6,256-frame maximum.
	ClusterFrames = []int{626, 1251, 1877, 2503, 3129, 3754, 4380, 5006, 5632, 6256}
	// FatFrames is the Table 6 series.
	FatFrames = []int{62560, 187680, 312800, 437920, 625600, 938400,
		1251200, 1564000, 1876800, 2502400, 3440800, 4379200, 5004800}
)

// Config parameterizes an experiment run.
type Config struct {
	Model *DataModel
	// Scale shrinks the system for live-pipeline experiments (Fig 8 and
	// validation); 10 keeps laptop runtimes in milliseconds.
	Scale int
	// MeasuredFrames is the trajectory length for live-pipeline runs.
	MeasuredFrames int
}

// DefaultConfig measures the data model from the full-size system (the
// real 43.5k-atom composition) over a short real sample.
func DefaultConfig() (*Config, error) {
	dm, err := Measure(gpcr.Default(), 8)
	if err != nil {
		return nil, err
	}
	return &Config{Model: dm, Scale: 10, MeasuredFrames: 120}, nil
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(*Config) (*Table, error)
}

// Experiments lists every table and figure of the evaluation, in paper
// order.
var Experiments = []Experiment{
	{"table1", "Data components of three .xtc files", runTable1},
	{"table2", "Data size comparisons, ext4 vs ADA (SSD server)", runTable2},
	{"fig7a", "SSD server: raw data retrieval time (s)", runFig7a},
	{"fig7b", "SSD server: data processing turnaround time (s)", runFig7b},
	{"fig7c", "SSD server: memory usage (MB)", runFig7c},
	{"fig8", "CPU burst profile: ext4 path vs ADA path", runFig8},
	{"table4", "Small-cluster system parameters", runTable4},
	{"fig9a", "Cluster: raw data retrieval time (s)", runFig9a},
	{"fig9b", "Cluster: data processing turnaround time (s)", runFig9b},
	{"fig9c", "Cluster: memory usage (MB)", runFig9c},
	{"table5", "Fat-node server parameters", runTable5},
	{"table6", "Data size comparisons, XFS vs ADA (fat node)", runTable6},
	{"fig10a", "Fat node: raw data retrieval time (min)", runFig10a},
	{"fig10b", "Fat node: data processing turnaround time (min)", runFig10b},
	{"fig10c", "Fat node: memory usage (GB)", runFig10c},
	{"fig10d", "Fat node: energy consumption (kJ)", runFig10d},
	{"ext-playback", "Extension: replay hit rate under a memory budget (§2.1 motivation)", runPlayback},
	{"ext-amortize", "Extension: amortization of ADA's one-time ingest over study sessions", runAmortize},
}

// Lookup returns the experiment with the given ID.
func Lookup(id string) (Experiment, error) {
	for _, e := range Experiments {
		if e.ID == id {
			return e, nil
		}
	}
	var ids []string
	for _, e := range Experiments {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (have %v)", id, ids)
}

func runTable1(cfg *Config) (*Table, error) {
	dm := cfg.Model
	t := &Table{
		ID:      "table1",
		Title:   "Data components of three .xtc files",
		Columns: []string{"Frames", "Complete data (MB)", "Protein data (MB)", "Protein fraction (%)"},
	}
	for _, frames := range []int{626, 1251, 5006} {
		comp := int64(dm.CompressedPerFrame * float64(frames))
		prot := int64(dm.CompressedProteinPerFrame * float64(frames))
		t.AddRow(fmt.Sprintf("%d", frames), fmtMB(comp), fmtMB(prot),
			fmt.Sprintf("%.1f", 100*dm.ProteinCompressedFraction()))
	}
	t.Notes = append(t.Notes,
		"paper: 44% / 49% / 43.5% protein fraction of the compressed files",
		fmt.Sprintf("synthetic system: %d atoms, %.1f%% protein, %.2fx compression",
			dm.NAtoms, 100*dm.ProteinFraction(), dm.CompressionRatio()))
	return t, nil
}

func runTable2(cfg *Config) (*Table, error) {
	dm := cfg.Model
	t := &Table{
		ID:      "table2",
		Title:   "Loaded data size, ext4 (compressed) vs ADA (de-compressed protein)",
		Columns: []string{"Frames", "ext4 (MB)", "ADA (MB)", "Raw data (MB)"},
	}
	for _, frames := range SSDFrames {
		c, r, p := dm.Sizes(frames)
		t.AddRow(fmt.Sprintf("%d", frames), fmtMB(c), fmtMB(p), fmtMB(r))
	}
	t.Notes = append(t.Notes,
		"paper at 5,006 frames: ext4 800 MB, ADA 1,108 MB, raw 2,612 MB")
	return t, nil
}

// seriesTable runs the four scenarios over a frame series on a platform and
// formats one metric per cell.
func seriesTable(id, title string, mk func() (*platform.Platform, error),
	dm *DataModel, frames []int, scenarios []Scenario,
	cell func(Point) string) (*Table, error) {
	p, err := mk()
	if err != nil {
		return nil, err
	}
	t := &Table{ID: id, Title: title, Columns: []string{"Frames"}}
	for _, sc := range scenarios {
		t.Columns = append(t.Columns, sc.Label(p.TraditionalName))
	}
	for _, n := range frames {
		row := []string{fmt.Sprintf("%d", n)}
		for _, sc := range scenarios {
			pt := RunAnalytic(p, dm, sc, n)
			v := cell(pt)
			if pt.Killed {
				v = killedCell(v)
			}
			row = append(row, v)
		}
		t.AddRow(row...)
	}
	return t, nil
}

func runFig7a(cfg *Config) (*Table, error) {
	t, err := seriesTable("fig7a", "SSD server: raw data retrieval time (s)",
		platform.NewSSDServer, cfg.Model, SSDFrames, Scenarios,
		func(pt Point) string { return fmtSec(pt.RetrievalSec) })
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"paper: C-ext4 best (smallest transfer); D-ADA(all) ~ D-ext4; D-ADA(protein) ~40% of raw")
	return t, nil
}

func runFig7b(cfg *Config) (*Table, error) {
	t, err := seriesTable("fig7b", "SSD server: data processing turnaround time (s)",
		platform.NewSSDServer, cfg.Model, SSDFrames, Scenarios,
		func(pt Point) string { return fmtSec(pt.Turnaround) })
	if err != nil {
		return nil, err
	}
	p, err := platform.NewSSDServer()
	if err != nil {
		return nil, err
	}
	last := SSDFrames[len(SSDFrames)-1]
	c := RunAnalytic(p, cfg.Model, CBase, last)
	a := RunAnalytic(p, cfg.Model, ADAProtein, last)
	t.Notes = append(t.Notes,
		fmt.Sprintf("paper: up to 13.4x (C-ext4 vs D-ADA(protein)); reproduced %.1fx at %d frames",
			c.Turnaround/a.Turnaround, last))
	return t, nil
}

func runFig7c(cfg *Config) (*Table, error) {
	t, err := seriesTable("fig7c", "SSD server: memory usage (MB)",
		platform.NewSSDServer, cfg.Model, SSDFrames, Scenarios,
		func(pt Point) string { return fmtMB(pt.MemoryPeak) })
	if err != nil {
		return nil, err
	}
	p, err := platform.NewSSDServer()
	if err != nil {
		return nil, err
	}
	last := SSDFrames[len(SSDFrames)-1]
	c := RunAnalytic(p, cfg.Model, CBase, last)
	a := RunAnalytic(p, cfg.Model, ADAProtein, last)
	t.Notes = append(t.Notes,
		fmt.Sprintf("paper: ext4 over 2.5x ADA at 5,006 frames; reproduced %.2fx",
			float64(c.MemoryPeak)/float64(a.MemoryPeak)))
	return t, nil
}

func runFig8(cfg *Config) (*Table, error) {
	p, err := platform.NewSSDServer()
	if err != nil {
		return nil, err
	}
	ds, err := p.Stage("gpcr", gpcr.Scaled(cfg.Scale), cfg.MeasuredFrames)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig8",
		Title:   "CPU burst profile (live pipeline, measured)",
		Columns: []string{"Bucket", "C-ext4 (s)", "C-ext4 (%)", "D-ADA(p) (s)", "D-ADA(p) (%)"},
	}
	cpt, err := RunMeasured(p, ds, CBase)
	if err != nil {
		return nil, err
	}
	apt, err := RunMeasured(p, ds, ADAProtein)
	if err != nil {
		return nil, err
	}
	buckets := map[string]bool{}
	for _, b := range cpt.Profile.Buckets() {
		buckets[b] = true
	}
	for _, b := range apt.Profile.Buckets() {
		buckets[b] = true
	}
	names := make([]string, 0, len(buckets))
	for b := range buckets {
		names = append(names, b)
	}
	sort.Strings(names)
	cTotal, aTotal := cpt.Profile.Total(), apt.Profile.Total()
	for _, b := range names {
		cv, av := cpt.Profile.Get(b), apt.Profile.Get(b)
		t.AddRow(b, fmtSec(cv), fmt.Sprintf("%.1f", 100*cv/cTotal),
			fmtSec(av), fmt.Sprintf("%.1f", 100*av/aTotal))
	}
	decompFrac := cpt.Profile.Get("compute.cpu.decompress") /
		cpt.Profile.TotalPrefix("compute.cpu.")
	t.Notes = append(t.Notes,
		fmt.Sprintf("paper: decompression > 50%% of compute CPU in the ext4 path; reproduced %.0f%%",
			100*decompFrac),
		fmt.Sprintf("measured live at scale 1/%d, %d frames", cfg.Scale, cfg.MeasuredFrames),
		"folded stacks (pipe to flamegraph.pl):",
	)
	for _, line := range strings.Split(strings.TrimSpace(cpt.Profile.Folded("C-ext4")), "\n") {
		t.Notes = append(t.Notes, "  "+line)
	}
	return t, nil
}

func platformParams(id, title string, mk func() (*platform.Platform, error)) (*Table, error) {
	p, err := mk()
	if err != nil {
		return nil, err
	}
	t := &Table{ID: id, Title: title, Columns: []string{"Parameter", "Value"}}
	for _, kv := range p.Params {
		t.AddRow(kv[0], kv[1])
	}
	return t, nil
}

func runTable4(*Config) (*Table, error) {
	return platformParams("table4", "Small-cluster system parameters", platform.NewSmallCluster)
}

func runTable5(*Config) (*Table, error) {
	return platformParams("table5", "Fat-node server parameters", platform.NewFatNode)
}

func runFig9a(cfg *Config) (*Table, error) {
	t, err := seriesTable("fig9a", "Cluster: raw data retrieval time (s)",
		platform.NewSmallCluster, cfg.Model, ClusterFrames, Scenarios,
		func(pt Point) string { return fmtSec(pt.RetrievalSec) })
	if err != nil {
		return nil, err
	}
	p, err := platform.NewSmallCluster()
	if err != nil {
		return nil, err
	}
	last := ClusterFrames[len(ClusterFrames)-1]
	d := RunAnalytic(p, cfg.Model, DBase, last)
	all := RunAnalytic(p, cfg.Model, ADAAll, last)
	t.Notes = append(t.Notes,
		fmt.Sprintf("paper: D-ADA(all) more than 2x better than D-PVFS; reproduced %.1fx",
			d.RetrievalSec/all.RetrievalSec))
	return t, nil
}

func runFig9b(cfg *Config) (*Table, error) {
	t, err := seriesTable("fig9b", "Cluster: data processing turnaround time (s)",
		platform.NewSmallCluster, cfg.Model, ClusterFrames, Scenarios,
		func(pt Point) string { return fmtSec(pt.Turnaround) })
	if err != nil {
		return nil, err
	}
	p, err := platform.NewSmallCluster()
	if err != nil {
		return nil, err
	}
	d := RunAnalytic(p, cfg.Model, DBase, 6256)
	a := RunAnalytic(p, cfg.Model, ADAProtein, 6256)
	t.Notes = append(t.Notes,
		fmt.Sprintf("paper: D-PVFS = 9x D-ADA(protein) at 6,256 frames; reproduced %.1fx",
			d.Turnaround/a.Turnaround))
	return t, nil
}

func runFig9c(cfg *Config) (*Table, error) {
	t, err := seriesTable("fig9c", "Cluster: memory usage (MB)",
		platform.NewSmallCluster, cfg.Model, ClusterFrames, Scenarios,
		func(pt Point) string { return fmtMB(pt.MemoryPeak) })
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, "paper: same trend as Fig 7c (identical data reaches memory)")
	return t, nil
}

func runTable6(cfg *Config) (*Table, error) {
	dm := cfg.Model
	t := &Table{
		ID:      "table6",
		Title:   "Loaded data size, XFS (compressed) vs ADA (de-compressed protein)",
		Columns: []string{"Frames", "XFS (GB)", "ADA (GB)", "Raw data (GB)"},
	}
	for _, frames := range FatFrames {
		c, r, p := dm.Sizes(frames)
		t.AddRow(fmt.Sprintf("%d", frames), fmtGB(c), fmtGB(p), fmtGB(r))
	}
	t.Notes = append(t.Notes,
		"paper at 5,004,800 frames: XFS 800 GB, ADA 1,108.8 GB, raw 2,612.8 GB")
	return t, nil
}

// fatScenarios drops the D-baseline: Fig 10 plots XFS (compressed), ADA(all)
// and ADA(protein).
var fatScenarios = []Scenario{CBase, ADAAll, ADAProtein}

func runFig10a(cfg *Config) (*Table, error) {
	t, err := seriesTable("fig10a", "Fat node: raw data retrieval time (min)",
		platform.NewFatNode, cfg.Model, FatFrames, fatScenarios,
		func(pt Point) string { return fmtMin(pt.RetrievalSec) })
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, "* = killed by OOM before completing (paper: XFS and ADA(all) die at 1,876,800 frames)")
	return t, nil
}

func runFig10b(cfg *Config) (*Table, error) {
	t, err := seriesTable("fig10b", "Fat node: data processing turnaround time (min)",
		platform.NewFatNode, cfg.Model, FatFrames, fatScenarios,
		func(pt Point) string { return fmtMin(pt.Turnaround) })
	if err != nil {
		return nil, err
	}
	p, err := platform.NewFatNode()
	if err != nil {
		return nil, err
	}
	pt := RunAnalytic(p, cfg.Model, CBase, 1564000)
	t.Notes = append(t.Notes,
		fmt.Sprintf("paper: ~400 min for XFS at 1,564,000 frames with retrieval <10%% of turnaround; reproduced %.0f min, retrieval %.1f%%",
			pt.Turnaround/60, 100*pt.RetrievalSec/pt.Turnaround))
	return t, nil
}

func runFig10c(cfg *Config) (*Table, error) {
	t, err := seriesTable("fig10c", "Fat node: memory usage (GB)",
		platform.NewFatNode, cfg.Model, FatFrames, fatScenarios,
		func(pt Point) string { return fmtGB(pt.MemoryPeak) })
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"paper: only ADA(protein) survives past 1,876,800 frames; it dies at 5,004,800 (>2x frames within 1 TB)")
	return t, nil
}

func runFig10d(cfg *Config) (*Table, error) {
	t, err := seriesTable("fig10d", "Fat node: energy consumption (kJ)",
		platform.NewFatNode, cfg.Model, FatFrames, fatScenarios,
		func(pt Point) string { return fmt.Sprintf("%.0f", pt.EnergyKJ) })
	if err != nil {
		return nil, err
	}
	p, err := platform.NewFatNode()
	if err != nil {
		return nil, err
	}
	x := RunAnalytic(p, cfg.Model, CBase, 1876800)
	a := RunAnalytic(p, cfg.Model, ADAAll, 1876800)
	pr := RunAnalytic(p, cfg.Model, ADAProtein, 1876800)
	t.Notes = append(t.Notes,
		fmt.Sprintf("paper at 1,876,800 frames: XFS >12,500 kJ, ADA <5,000 kJ, ADA(protein) ~2,200 kJ; reproduced %.0f / %.0f / %.0f",
			x.EnergyKJ, a.EnergyKJ, pr.EnergyKJ))
	return t, nil
}
