package vmd

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/gpcr"
	"repro/internal/mdsim"
	"repro/internal/metrics"
	"repro/internal/pdb"
	"repro/internal/placement"
	"repro/internal/plfs"
	"repro/internal/vfs"
	"repro/internal/xtc"
)

// vmdDownFS models a storage node with its transport gone.
type vmdDownFS struct{}

func (vmdDownFS) Create(string) (vfs.File, error)        { return nil, vfs.ErrBackendDown }
func (vmdDownFS) Open(string) (vfs.File, error)          { return nil, vfs.ErrBackendDown }
func (vmdDownFS) Stat(string) (vfs.FileInfo, error)      { return vfs.FileInfo{}, vfs.ErrBackendDown }
func (vmdDownFS) ReadDir(string) ([]vfs.FileInfo, error) { return nil, vfs.ErrBackendDown }
func (vmdDownFS) MkdirAll(string) error                  { return vfs.ErrBackendDown }
func (vmdDownFS) Remove(string) error                    { return vfs.ErrBackendDown }
func (vmdDownFS) Rename(string, string) error            { return vfs.ErrBackendDown }

// TestClusterPlaybackSurvivesNodeDeath runs the full viewer path — mol
// addfile over an ADA whose store is a 3-node R=2 placement cluster — and
// then replays it with each node down in turn. The session must load the
// same frames with the same coordinates every time.
func TestClusterPlaybackSurvivesNodeDeath(t *testing.T) {
	sys, err := gpcr.Scaled(120).Build()
	if err != nil {
		t.Fatal(err)
	}
	var pb bytes.Buffer
	if err := pdb.Write(&pb, sys.Structure); err != nil {
		t.Fatal(err)
	}
	cats := make([]pdb.Category, sys.Structure.NAtoms())
	for i := range cats {
		cats[i] = sys.Structure.Atoms[i].Category
	}
	s, err := mdsim.New(sys.Coords, cats, sys.Box, mdsim.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var tb bytes.Buffer
	if err := s.WriteTrajectory(xtc.NewWriter(&tb), 5); err != nil {
		t.Fatal(err)
	}

	nodes := map[string]vfs.FS{
		"n1": vfs.NewMemFS(), "n2": vfs.NewMemFS(), "n3": vfs.NewMemFS(),
	}
	tbl := &placement.Table{
		Version: 1, Replication: 2,
		Nodes: []placement.Node{{Name: "n1"}, {Name: "n2"}, {Name: "n3"}},
	}
	c, err := placement.NewCluster(tbl, nodes, placement.Config{Metrics: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	store, err := plfs.New(plfs.Backend{Name: "clu", FS: c, Mount: "/clu"})
	if err != nil {
		t.Fatal(err)
	}
	a := core.New(store, nil, core.Options{Metrics: metrics.NewRegistry()})
	if _, err := a.Ingest("/traj.md", pb.Bytes(), bytes.NewReader(tb.Bytes())); err != nil {
		t.Fatal(err)
	}

	load := func() *Session {
		sess := NewSession(nil, 0, ComputeCost{})
		if err := sess.LoadADASubset(a, "/traj.md", core.TagProtein); err != nil {
			t.Fatalf("load: %v", err)
		}
		return sess
	}
	want := load()
	if want.Frames() != 5 {
		t.Fatalf("baseline loaded %d frames, want 5", want.Frames())
	}

	for _, victim := range []string{"n1", "n2", "n3"} {
		c.AddNode(victim, vmdDownFS{})
		got := load()
		if got.Frames() != want.Frames() {
			t.Fatalf("victim %s: %d frames, want %d", victim, got.Frames(), want.Frames())
		}
		for i := 0; i < want.Frames(); i++ {
			wf, gf := want.Frame(i), got.Frame(i)
			if len(wf.Coords) != len(gf.Coords) {
				t.Fatalf("victim %s: frame %d atom count diverged", victim, i)
			}
			for j := range wf.Coords {
				if wf.Coords[j] != gf.Coords[j] {
					t.Fatalf("victim %s: frame %d atom %d coords diverged", victim, i, j)
				}
			}
		}
		c.AddNode(victim, nodes[victim])
		if err := c.Probe(victim); err != nil {
			t.Fatal(err)
		}
	}
}
