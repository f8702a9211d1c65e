package main

import (
	"bytes"
	"io"
	"testing"

	ada "repro"
	"repro/internal/core"
	"repro/internal/plfs"
	"repro/internal/rpc"
	"repro/internal/tier"
	"repro/internal/vfs"
)

// tierStore is the two-tier container store setupTiering views the served
// tree as, over fsys.
func tierStore(t *testing.T, fsys vfs.FS) *plfs.FS {
	t.Helper()
	containers, err := plfs.New(
		plfs.Backend{Name: "ssd", FS: fsys, Mount: "/ssd"},
		plfs.Backend{Name: "hdd", FS: fsys, Mount: "/hdd"},
	)
	if err != nil {
		t.Fatal(err)
	}
	return containers
}

// TestTierSeesClientIngest checks that the node's migrator measures bytes
// its clients wrote: they reach the tree through the rpc server, never
// through the migrator's own store, and a round after they land must see
// them on the fast backend and demote them.
func TestTierSeesClientIngest(t *testing.T) {
	pdbBytes, traj, err := ada.GenerateTrajectory(ada.ScaledSystem(200), 3)
	if err != nil {
		t.Fatal(err)
	}
	base := vfs.NewMemFS()
	mig, _, err := setupTiering(base, "fast=ssd,slow=hdd,cap=1")
	if err != nil {
		t.Fatal(err)
	}
	if rep, err := mig.Step(); err != nil || rep.FastUsage != 0 {
		t.Fatalf("first round over an empty tree = %+v, %v", rep, err)
	}

	srv := rpc.NewServer(base, nil)
	ln := newLocalListener(t)
	go srv.Serve(ln)
	defer srv.Close()
	c, err := rpc.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	allFast := core.Placement{core.TagProtein: "ssd", core.TagMisc: "ssd"}
	if _, err := core.New(tierStore(t, c), nil, core.Options{Placement: allFast}).
		Ingest("/ds", pdbBytes, bytes.NewReader(traj)); err != nil {
		t.Fatal(err)
	}

	rep, err := mig.Step()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Demotions) != 2 {
		t.Fatalf("round after a client ingest = %+v, want both subsets demoted", rep)
	}
}

// TestTierHeatFromServedReads wires tiering the way run does: subset reads
// the rpc server answers over the HeatFS-wrapped tree raise the tracker's
// heat, and the migrator's own moves, made through the unwrapped tree, do
// not.
func TestTierHeatFromServedReads(t *testing.T) {
	pdbBytes, traj, err := ada.GenerateTrajectory(ada.ScaledSystem(200), 3)
	if err != nil {
		t.Fatal(err)
	}
	store := func(fsys vfs.FS) *plfs.FS { return tierStore(t, fsys) }
	base := vfs.NewMemFS()
	allFast := core.Placement{core.TagProtein: "ssd", core.TagMisc: "ssd"}
	if _, err := core.New(store(base), nil, core.Options{Placement: allFast}).
		Ingest("/ds", pdbBytes, bytes.NewReader(traj)); err != nil {
		t.Fatal(err)
	}
	// A one-byte budget: every subset must leave the fast backend.
	mig, trk, err := setupTiering(base, "fast=ssd,slow=hdd,cap=1")
	if err != nil {
		t.Fatal(err)
	}
	srv := rpc.NewServer(tier.HeatFS(base, trk), nil)
	ln := newLocalListener(t)
	go srv.Serve(ln)
	defer srv.Close()
	c, err := rpc.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sr, err := core.New(store(c), nil, core.Options{}).OpenSubset("/ds", core.TagProtein)
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := sr.ReadFrame(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	sr.Close()
	hot := trk.Heat("/ds", "subset."+core.TagProtein)
	if hot <= 0 {
		t.Fatal("a served subset read raised no heat")
	}

	rep, err := mig.Step()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Demotions) != 2 {
		t.Fatalf("demotions = %+v, want both subsets", rep.Demotions)
	}
	if h := trk.Heat("/ds", "subset."+core.TagMisc); h != 0 {
		t.Errorf("moving the unread subset heated it to %g", h)
	}
	if h := trk.Heat("/ds", "subset."+core.TagProtein); h > hot {
		t.Errorf("moving the read subset heated it: %g -> %g", hot, h)
	}
}
