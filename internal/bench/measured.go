package bench

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/vmd"
)

// MeasuredPoint is a Point produced by the live pipeline, with the CPU/IO
// profile of the run attached (the Fig 8 flame-graph view).
type MeasuredPoint struct {
	Point
	Profile *sim.Profile
}

// RunMeasured executes one scenario end-to-end through the real middleware
// on a staged dataset: real codec, real container reads, virtual clock.
// An OOM kill is reported in the Point, not as an error.
func RunMeasured(p *platform.Platform, ds *platform.Dataset, sc Scenario) (*MeasuredPoint, error) {
	// Isolate this run's accounting.
	p.Env.Profile.Reset()
	start := p.Env.Clock.Now()
	meter := p.NewMeter()
	meter.Start()

	s := p.NewSession()
	if err := s.MolNew(p.Traditional, ds.PDBPath); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", sc, err)
	}
	var loadErr error
	switch sc {
	case CBase:
		loadErr = s.LoadCompressed(p.Traditional, ds.CompressedPath)
	case DBase:
		loadErr = s.LoadRaw(p.Traditional, ds.RawPath)
	case ADAAll:
		loadErr = s.LoadADAFull(p.ADA, ds.Logical)
	case ADAProtein:
		loadErr = s.LoadADASubset(p.ADA, ds.Logical, core.TagProtein)
	default:
		return nil, fmt.Errorf("bench: unknown scenario %q", sc)
	}
	killed := false
	if loadErr != nil {
		if !errors.Is(loadErr, vmd.ErrOutOfMemory) {
			return nil, fmt.Errorf("bench: %s: %w", sc, loadErr)
		}
		killed = true
	}
	if !killed {
		s.RenderLoaded()
	}
	meter.Stop()

	prof := p.Env.Profile
	pt := Point{
		Scenario: sc,
		Frames:   s.Frames(),
		RetrievalSec: prof.TotalPrefix("io.read.") +
			prof.TotalPrefix("net.read.") + prof.TotalPrefix("meta."),
		PreprocSec: prof.Get("compute.cpu.decompress") + prof.Get("compute.cpu.scan"),
		RenderSec:  prof.Get("compute.cpu.render"),
		Turnaround: p.Env.Clock.Now() - start,
		MemoryPeak: s.Mem.Peak(),
		Killed:     killed,
		EnergyKJ:   meter.Kilojoules(),
	}
	switch sc {
	case CBase:
		info, err := p.Traditional.Stat(ds.CompressedPath)
		if err == nil {
			pt.LoadedBytes = info.Size
		}
	case DBase:
		info, err := p.Traditional.Stat(ds.RawPath)
		if err == nil {
			pt.LoadedBytes = info.Size
		}
	case ADAAll:
		if m, err := p.ADA.Manifest(ds.Logical); err == nil {
			for _, sub := range m.Subsets {
				pt.LoadedBytes += sub.Bytes
			}
		}
	case ADAProtein:
		if m, err := p.ADA.Manifest(ds.Logical); err == nil {
			pt.LoadedBytes = m.Subsets[core.TagProtein].Bytes
		}
	}
	return &MeasuredPoint{Point: pt, Profile: prof.Clone()}, nil
}
