package platform

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/gpcr"
	"repro/internal/vfs"
	"repro/internal/vmd"
)

func TestPlatformsConstruct(t *testing.T) {
	for _, mk := range []func() (*Platform, error){NewSSDServer, NewSmallCluster, NewFatNode} {
		p, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		if p.Env == nil || p.ADA == nil || p.Traditional == nil {
			t.Errorf("%s: incomplete platform", p.Name)
		}
		if len(p.Params) == 0 {
			t.Errorf("%s: missing spec sheet", p.Name)
		}
		if p.String() == "" {
			t.Errorf("%s: empty String()", p.Name)
		}
	}
}

func TestStageProducesAllRepresentations(t *testing.T) {
	p, err := NewSSDServer()
	if err != nil {
		t.Fatal(err)
	}
	ds, err := p.Stage("gpcr", gpcr.Scaled(200), 5)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Frames != 5 || ds.Compressed <= 0 || ds.Raw <= ds.Compressed {
		t.Errorf("dataset = %+v", ds)
	}
	for _, path := range []string{ds.PDBPath, ds.CompressedPath, ds.RawPath} {
		info, err := p.Traditional.Stat(path)
		if err != nil || info.Size == 0 {
			t.Errorf("%s: %v, %+v", path, err, info)
		}
	}
	if ds.Ingest == nil || ds.Ingest.Frames != 5 {
		t.Errorf("ingest = %+v", ds.Ingest)
	}
	// Staging must leave a clean profile for the measured phase.
	if p.Env.Profile.Total() != 0 {
		t.Errorf("profile not reset after staging: %v", p.Env.Profile.Buckets())
	}
	// The compressed file on the traditional FS matches the ingest size.
	info, _ := p.Traditional.Stat(ds.CompressedPath)
	if info.Size != ds.Ingest.Compressed {
		t.Errorf("compressed sizes differ: %d vs %d", info.Size, ds.Ingest.Compressed)
	}
}

func TestFourScenariosRunOnEveryPlatform(t *testing.T) {
	for _, mk := range []func() (*Platform, error){NewSSDServer, NewSmallCluster, NewFatNode} {
		p, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		ds, err := p.Stage("gpcr", gpcr.Scaled(200), 3)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		scenarios := []struct {
			name string
			load func(s *vmd.Session) error
		}{
			{"C-" + p.TraditionalName, func(s *vmd.Session) error { return s.LoadCompressed(p.Traditional, ds.CompressedPath) }},
			{"D-" + p.TraditionalName, func(s *vmd.Session) error { return s.LoadRaw(p.Traditional, ds.RawPath) }},
			{"D-ADA(all)", func(s *vmd.Session) error { return s.LoadADAFull(p.ADA, ds.Logical) }},
			{"D-ADA(protein)", func(s *vmd.Session) error { return s.LoadADASubset(p.ADA, ds.Logical, core.TagProtein) }},
		}
		for _, sc := range scenarios {
			s := p.NewSession()
			if err := s.MolNew(p.Traditional, ds.PDBPath); err != nil {
				t.Fatalf("%s/%s: %v", p.Name, sc.name, err)
			}
			if err := sc.load(s); err != nil {
				t.Fatalf("%s/%s: %v", p.Name, sc.name, err)
			}
			if s.Frames() != ds.Frames {
				t.Errorf("%s/%s: frames = %d", p.Name, sc.name, s.Frames())
			}
			st := s.RenderLoaded()
			if st.AtomsPerFrame != ds.ProteinAtoms {
				t.Errorf("%s/%s: rendered %d atoms, want %d", p.Name, sc.name, st.AtomsPerFrame, ds.ProteinAtoms)
			}
		}
	}
}

func TestClusterPlacesSubsetsOnSSDInstance(t *testing.T) {
	p, err := NewSmallCluster()
	if err != nil {
		t.Fatal(err)
	}
	ds, err := p.Stage("gpcr", gpcr.Scaled(300), 2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.ADA.Manifest(ds.Logical)
	if err != nil {
		t.Fatal(err)
	}
	for tag, sub := range m.Subsets {
		if sub.Backend != "ssd" {
			t.Errorf("tag %s placed on %s, want ssd (Fig 9a deployment)", tag, sub.Backend)
		}
	}
}

func TestSSDServerSplitsAcrossNVMeDrives(t *testing.T) {
	p, err := NewSSDServer()
	if err != nil {
		t.Fatal(err)
	}
	ds, err := p.Stage("gpcr", gpcr.Scaled(300), 2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.ADA.Manifest(ds.Logical)
	if err != nil {
		t.Fatal(err)
	}
	if m.Subsets[core.TagProtein].Backend != "nvme0" || m.Subsets[core.TagMisc].Backend != "nvme1" {
		t.Errorf("placement = %+v", m.Placement)
	}
}

func TestTurnaroundOrdering(t *testing.T) {
	// The paper's headline shape on every platform: turnaround(ADA protein)
	// < turnaround(D baseline) < turnaround(C baseline), because the C path
	// pays compute-side decompression.
	for _, mk := range []func() (*Platform, error){NewSSDServer, NewSmallCluster, NewFatNode} {
		p, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		// Large enough that transfer time dominates fixed positioning
		// charges on the RAID-backed fat node.
		ds, err := p.Stage("gpcr", gpcr.Scaled(10), 800)
		if err != nil {
			t.Fatal(err)
		}
		turnaround := func(load func(s *vmd.Session) error) float64 {
			s := p.NewSession()
			if err := s.MolNew(p.Traditional, ds.PDBPath); err != nil {
				t.Fatal(err)
			}
			start := p.Env.Clock.Now()
			if err := load(s); err != nil {
				t.Fatal(err)
			}
			s.RenderLoaded()
			return p.Env.Clock.Now() - start
		}
		c := turnaround(func(s *vmd.Session) error { return s.LoadCompressed(p.Traditional, ds.CompressedPath) })
		d := turnaround(func(s *vmd.Session) error { return s.LoadRaw(p.Traditional, ds.RawPath) })
		prot := turnaround(func(s *vmd.Session) error { return s.LoadADASubset(p.ADA, ds.Logical, core.TagProtein) })
		t.Logf("%s: C=%.4fs D=%.4fs ADA(protein)=%.4fs", p.Name, c, d, prot)
		if !(prot < d && d < c) {
			t.Errorf("%s: ordering violated: C=%.4f D=%.4f ADA-p=%.4f", p.Name, c, d, prot)
		}
	}
}

func TestFatNodeOOMBehaviour(t *testing.T) {
	// Shrink the fat node's memory so the kill points appear at test scale:
	// raw > capacity -> C and ADA(all) die, ADA(protein) survives.
	p, err := NewFatNode()
	if err != nil {
		t.Fatal(err)
	}
	ds, err := p.Stage("gpcr", gpcr.Scaled(100), 6)
	if err != nil {
		t.Fatal(err)
	}
	p.MemCapacity = ds.Raw*3/4 + 1024

	run := func(load func(s *vmd.Session) error) error {
		s := p.NewSession()
		if err := s.MolNew(p.Traditional, ds.PDBPath); err != nil {
			t.Fatal(err)
		}
		return load(s)
	}
	errC := run(func(s *vmd.Session) error { return s.LoadCompressed(p.Traditional, ds.CompressedPath) })
	errAll := run(func(s *vmd.Session) error { return s.LoadADAFull(p.ADA, ds.Logical) })
	errProt := run(func(s *vmd.Session) error { return s.LoadADASubset(p.ADA, ds.Logical, core.TagProtein) })
	if !errors.Is(errC, vmd.ErrOutOfMemory) {
		t.Errorf("C path: %v, want OOM", errC)
	}
	if !errors.Is(errAll, vmd.ErrOutOfMemory) {
		t.Errorf("ADA(all): %v, want OOM", errAll)
	}
	if errProt != nil {
		t.Errorf("ADA(protein) should survive: %v", errProt)
	}
}

func TestArchivalCompressedCopyOnCluster(t *testing.T) {
	// The cluster keeps its baseline copies on the hybrid PVFS; ensure both
	// C and D forms are readable there after staging.
	p, err := NewSmallCluster()
	if err != nil {
		t.Fatal(err)
	}
	ds, err := p.Stage("gpcr", gpcr.Scaled(300), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{ds.CompressedPath, ds.RawPath} {
		data, err := vfs.ReadFile(p.Traditional, path)
		if err != nil || len(data) == 0 {
			t.Errorf("%s: %v (%d bytes)", path, err, len(data))
		}
	}
}
