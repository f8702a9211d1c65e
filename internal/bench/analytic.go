package bench

import (
	"fmt"

	"repro/internal/platform"
)

// Scenario names one of the evaluation's four data paths.
type Scenario string

// The four scenarios of Figs 7, 9 and 10 (Table 3's notation).
const (
	CBase      Scenario = "C-base"     // compressed trajectory on the baseline FS
	DBase      Scenario = "D-base"     // raw trajectory on the baseline FS
	ADAAll     Scenario = "D-ADA(all)" // ADA transfers every subset
	ADAProtein Scenario = "D-ADA(p)"   // ADA transfers the protein subset
)

// Scenarios lists them in the paper's plotting order.
var Scenarios = []Scenario{CBase, DBase, ADAAll, ADAProtein}

// Label renders the scenario with the platform's baseline FS name, e.g.
// "C-ext4" or "D-PVFS".
func (s Scenario) Label(baselineFS string) string {
	switch s {
	case CBase:
		return "C-" + baselineFS
	case DBase:
		return "D-" + baselineFS
	default:
		return string(s)
	}
}

// Point is one scenario at one frame count.
type Point struct {
	Scenario     Scenario
	Frames       int
	LoadedBytes  int64   // what crosses storage -> memory
	RetrievalSec float64 // raw-data retrieval time (Figs 7a/9a/10a)
	PreprocSec   float64 // compute-side decompress + scan
	RenderSec    float64
	Turnaround   float64 // retrieval + pre-processing + rendering
	MemoryPeak   int64   // Figs 7c/9c/10c
	Killed       bool    // OOM-killed before completing (Fig 10)
	EnergyKJ     float64 // platform power x turnaround window (Fig 10d)
}

// RunAnalytic evaluates one scenario at one frame count using the
// platform's analytic read models and CPU cost models. The memory and kill
// rules mirror internal/vmd's live Session exactly.
func RunAnalytic(p *platform.Platform, dm *DataModel, sc Scenario, frames int) Point {
	baseRead, adaRead := p.AnalyticModels()
	cost := p.ComputeCost
	factor := 1.0
	if cost.CPUFactor > 0 {
		factor = cost.CPUFactor
	}
	cap := p.MemCapacity

	c, r, rp := dm.Sizes(frames)
	subsets := int64(dm.SubsetsRawPerFrame * float64(frames))

	pt := Point{Scenario: sc, Frames: frames}
	// Every scenario retrieves the structure file first (mol new).
	pdbIO := baseRead(dm.PDBBytes)
	pdbCPU := float64(dm.PDBBytes) / (cost.PDBParseBps * factor)

	decompress := func(n int64) float64 { return float64(n) / (cost.DecompressBps * factor) }
	scan := func(n int64) float64 { return float64(n) / (cost.ScanBps * factor) }
	render := float64(dm.ProteinAtoms) * float64(frames) * cost.RenderSecPerAtomFrame / factor

	switch sc {
	case CBase:
		pt.LoadedBytes = c
		pt.RetrievalSec = pdbIO + baseRead(c)
		if cap > 0 && c > cap {
			// The compressed buffer itself does not fit: killed right
			// after the read, before any decompression.
			pt.Killed = true
			pt.MemoryPeak = cap
			pt.Turnaround = pt.RetrievalSec + pdbCPU
			break
		}
		full := decompress(c) + scan(r)
		if cap > 0 && r > cap {
			// Progressive decompression: memory(f) = (1-f)c + f*r crosses
			// capacity at f_kill.
			fKill := float64(cap-c) / float64(r-c)
			pt.Killed = true
			pt.MemoryPeak = cap
			pt.PreprocSec = fKill * full
			pt.Turnaround = pt.RetrievalSec + pdbCPU + pt.PreprocSec
			break
		}
		pt.PreprocSec = full
		pt.RenderSec = render
		pt.MemoryPeak = r + int64(dm.CompressedPerFrame)
		pt.Turnaround = pt.RetrievalSec + pdbCPU + pt.PreprocSec + pt.RenderSec

	case DBase, ADAAll:
		pt.LoadedBytes = r
		read := baseRead(r)
		if sc == ADAAll {
			pt.LoadedBytes = subsets
			read = adaRead(subsets)
		}
		pre := scan(r)
		if cap > 0 && r > cap {
			// Streaming load: I/O and scan truncate at the kill fraction.
			f := float64(cap) / float64(r)
			pt.Killed = true
			pt.MemoryPeak = cap
			pt.RetrievalSec = pdbIO + f*read
			pt.PreprocSec = f * pre
			pt.Turnaround = pt.RetrievalSec + pdbCPU + pt.PreprocSec
			break
		}
		pt.RetrievalSec = pdbIO + read
		pt.PreprocSec = pre
		pt.RenderSec = render
		pt.MemoryPeak = r
		pt.Turnaround = pt.RetrievalSec + pdbCPU + pt.PreprocSec + pt.RenderSec

	case ADAProtein:
		pt.LoadedBytes = rp
		read := adaRead(rp)
		if cap > 0 && rp > cap {
			f := float64(cap) / float64(rp)
			pt.Killed = true
			pt.MemoryPeak = cap
			pt.RetrievalSec = pdbIO + f*read
			pt.Turnaround = pt.RetrievalSec + pdbCPU
			break
		}
		pt.RetrievalSec = pdbIO + read
		pt.RenderSec = render
		pt.MemoryPeak = rp
		pt.Turnaround = pt.RetrievalSec + pdbCPU + pt.RenderSec

	default:
		panic(fmt.Sprintf("bench: unknown scenario %q", sc))
	}
	pt.EnergyKJ = p.PowerWatts * pt.Turnaround / 1000
	return pt
}
