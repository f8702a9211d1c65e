package core

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"testing"

	"repro/internal/metrics"
	"repro/internal/placement"
	"repro/internal/plfs"
	"repro/internal/vfs"
	"repro/internal/xtc"
)

// clusterDownFS is a node whose transport is gone: every call fails with
// the typed down error, like an rpc pool with its retries exhausted.
type clusterDownFS struct{}

func (clusterDownFS) Create(string) (vfs.File, error)        { return nil, vfs.ErrBackendDown }
func (clusterDownFS) Open(string) (vfs.File, error)          { return nil, vfs.ErrBackendDown }
func (clusterDownFS) Stat(string) (vfs.FileInfo, error)      { return vfs.FileInfo{}, vfs.ErrBackendDown }
func (clusterDownFS) ReadDir(string) ([]vfs.FileInfo, error) { return nil, vfs.ErrBackendDown }
func (clusterDownFS) MkdirAll(string) error                  { return vfs.ErrBackendDown }
func (clusterDownFS) Remove(string) error                    { return vfs.ErrBackendDown }
func (clusterDownFS) Rename(string, string) error            { return vfs.ErrBackendDown }

// newClusterADA builds an ADA whose single plfs backend is a 3-node R=2
// placement cluster over in-memory node stores.
func newClusterADA(t testing.TB) (*ADA, *placement.Cluster, map[string]vfs.FS, *metrics.Registry) {
	t.Helper()
	nodes := map[string]vfs.FS{
		"n1": vfs.NewMemFS(), "n2": vfs.NewMemFS(), "n3": vfs.NewMemFS(),
	}
	tbl := &placement.Table{
		Version: 1, Replication: 2,
		Nodes: []placement.Node{{Name: "n1"}, {Name: "n2"}, {Name: "n3"}},
	}
	reg := metrics.NewRegistry()
	c, err := placement.NewCluster(tbl, nodes, placement.Config{HedgeDelay: -1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	store, err := plfs.New(plfs.Backend{Name: "clu", FS: c, Mount: "/clu"})
	if err != nil {
		t.Fatal(err)
	}
	store.SetMetrics(reg)
	return New(store, nil, Options{Metrics: reg}), c, nodes, reg
}

// subsetSig fingerprints the decoded frames of one subset.
func subsetSig(t testing.TB, a *ADA, logical, tag string) string {
	t.Helper()
	sr, err := a.OpenSubset(logical, tag)
	if err != nil {
		t.Fatalf("open subset %s: %v", tag, err)
	}
	defer sr.Close()
	crc := crc32.NewIEEE()
	n := 0
	for {
		f, err := sr.ReadFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("subset %s frame %d: %v", tag, n, err)
		}
		for _, v := range f.Coords {
			var b [12]byte
			for i := 0; i < 3; i++ {
				u := math.Float32bits(v[i])
				b[4*i], b[4*i+1], b[4*i+2], b[4*i+3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
			}
			crc.Write(b[:])
		}
		n++
	}
	return fmt.Sprintf("%s:%d:%08x", tag, n, crc.Sum32())
}

// TestClusterBackedDegradedRead ingests through a placement cluster and
// then reads with each node down in turn: the ADA read path must return
// byte-identical frames for every single-node failure at R=2.
func TestClusterBackedDegradedRead(t *testing.T) {
	pdbBytes, traj, _ := testDataset(t, 120, 5)
	a, c, nodes, reg := newClusterADA(t)
	if _, err := a.Ingest("/traj.md", pdbBytes, bytes.NewReader(traj)); err != nil {
		t.Fatal(err)
	}
	wantP := subsetSig(t, a, "/traj.md", TagProtein)
	wantM := subsetSig(t, a, "/traj.md", TagMisc)

	for _, victim := range []string{"n1", "n2", "n3"} {
		c.AddNode(victim, clusterDownFS{})
		if got := subsetSig(t, a, "/traj.md", TagProtein); got != wantP {
			t.Fatalf("victim %s: protein read diverged: %s vs %s", victim, got, wantP)
		}
		if got := subsetSig(t, a, "/traj.md", TagMisc); got != wantM {
			t.Fatalf("victim %s: misc read diverged: %s vs %s", victim, got, wantM)
		}
		// Manifest and structure resolve through the degraded cluster too.
		if _, err := a.Manifest("/traj.md"); err != nil {
			t.Fatalf("victim %s: manifest: %v", victim, err)
		}
		if _, err := a.StructureBytes("/traj.md"); err != nil {
			t.Fatalf("victim %s: structure: %v", victim, err)
		}
		// Heal before the next round.
		c.AddNode(victim, nodes[victim])
		if err := c.Probe(victim); err != nil {
			t.Fatal(err)
		}
	}
	// The outage was noticed, not silently absorbed: the primary holder's
	// death forces a failover that marks it down. (The secondary holder
	// and the bystander may never be touched while the primary is healthy,
	// so only one transition is guaranteed.)
	snap := reg.Snapshot()
	var marked int64
	for _, n := range []string{"n1", "n2", "n3"} {
		marked += snap.Counters["placement.node."+n+".down"]
	}
	if marked < 1 {
		t.Error("no down transitions recorded across three single-node outages")
	}
}

// readEveryWay reads one subset through the sequential and the random-access
// reader, and the whole dataset through OpenFull, each to its end or first
// error.
func readEveryWay(a *ADA, logical, tag string) (frames map[string][]*xtc.Frame, errs map[string]error) {
	frames, errs = map[string][]*xtc.Frame{}, map[string]error{}
	drain := func(how string, next func(i int) (*xtc.Frame, error)) {
		for i := 0; ; i++ {
			f, err := next(i)
			if err == io.EOF {
				return
			}
			if err != nil {
				errs[how] = err
				return
			}
			frames[how] = append(frames[how], f)
		}
	}
	if sr, err := a.OpenSubset(logical, tag); err != nil {
		errs["OpenSubset"] = err
	} else {
		drain("OpenSubset", func(int) (*xtc.Frame, error) { return sr.ReadFrame() })
		sr.Close()
	}
	if rr, err := a.OpenSubsetAt(logical, tag); err != nil {
		errs["OpenSubsetAt"] = err
	} else {
		drain("OpenSubsetAt", func(i int) (*xtc.Frame, error) {
			if i == rr.Frames() {
				return nil, io.EOF
			}
			return rr.ReadFrameAt(i)
		})
		rr.Close()
	}
	if fr, err := a.OpenFull(logical); err != nil {
		errs["OpenFull"] = err
	} else {
		drain("OpenFull", func(int) (*xtc.Frame, error) { return fr.ReadFrame() })
		fr.Close()
	}
	return frames, errs
}

// TestClusterBackedBitRotRead flips one byte of the primary copy of the
// active subset on the deployed fixture. Every reader must return the frames
// of the clean read by failing that frame over to the mirror — counted, and
// without marking the node that served the rotten bytes down; with the
// mirror rotten too the read surfaces vfs.ErrCorrupted.
func TestClusterBackedBitRotRead(t *testing.T) {
	pdbBytes, traj, _ := testDataset(t, 120, 5)
	a, c, nodes, reg := newClusterADA(t)
	if _, err := a.Ingest("/traj.md", pdbBytes, bytes.NewReader(traj)); err != nil {
		t.Fatal(err)
	}
	clean, errs := readEveryWay(a, "/traj.md", TagProtein)
	if len(errs) != 0 || len(clean) != 3 {
		t.Fatalf("clean read: %v", errs)
	}

	const payload = "/clu/traj.md/subset.p"
	reps := c.Table().Place(payload)
	rot := func(node string) {
		t.Helper()
		data, err := vfs.ReadFile(nodes[node], payload)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x01
		if err := vfs.WriteFile(nodes[node], payload, data); err != nil {
			t.Fatal(err)
		}
	}
	rot(reps[0])
	got, errs := readEveryWay(a, "/traj.md", TagProtein)
	if len(errs) != 0 {
		t.Fatalf("read with one rotten copy: %v", errs)
	}
	for how, frames := range clean {
		if len(frames) != 5 || !sameFrames(got[how], frames) {
			t.Errorf("%s: frames read over a rotten copy differ from the clean read", how)
		}
	}
	snap := reg.Snapshot()
	if snap.Counters["core.verify.corrupted"] < 1 || snap.Counters["placement.failover.reads"] < 1 {
		t.Errorf("core.verify.corrupted = %d, placement.failover.reads = %d; want both counted",
			snap.Counters["core.verify.corrupted"], snap.Counters["placement.failover.reads"])
	}
	if h := c.Health(); !h[reps[0]] {
		t.Errorf("a rotten copy marked %s down", reps[0])
	}

	rot(reps[1])
	_, errs = readEveryWay(a, "/traj.md", TagProtein)
	for how := range clean {
		if !errors.Is(errs[how], vfs.ErrCorrupted) {
			t.Errorf("%s with every copy rotten = %v, want vfs.ErrCorrupted", how, errs[how])
		}
	}
}

// TestClusterBackedReadsSurviveFailedWrite: a strict write that fails on a
// down replica holder must not take the committed data with it. Dataset A
// keeps reading bit-identically through every reader while the node is down
// and after it is back, and nothing is called on the container store in
// between — the cluster is the only layer that remembers the outage.
func TestClusterBackedReadsSurviveFailedWrite(t *testing.T) {
	pdbBytes, traj, _ := testDataset(t, 120, 5)
	a, c, nodes, _ := newClusterADA(t)
	if _, err := a.Ingest("/a.md", pdbBytes, bytes.NewReader(traj)); err != nil {
		t.Fatal(err)
	}
	clean, errs := readEveryWay(a, "/a.md", TagProtein)
	if len(errs) != 0 || len(clean) != 3 {
		t.Fatalf("clean read: %v", errs)
	}
	readA := func(when string) {
		t.Helper()
		got, errs := readEveryWay(a, "/a.md", TagProtein)
		if len(errs) != 0 {
			t.Fatalf("%s: read of the committed dataset: %v", when, errs)
		}
		for how, frames := range clean {
			if len(frames) != 5 || !sameFrames(got[how], frames) {
				t.Errorf("%s: %s frames differ from the clean read", when, how)
			}
		}
	}

	victim := c.Table().Place("/clu/a.md/subset.p")[0]
	c.AddNode(victim, clusterDownFS{})
	if _, err := a.Ingest("/b.md", pdbBytes, bytes.NewReader(traj)); !errors.Is(err, vfs.ErrBackendDown) {
		t.Fatalf("ingest with %s down = %v, want ErrBackendDown", victim, err)
	}
	readA("holder down, after the failed write")
	if h := c.Health(); h[victim] {
		t.Errorf("%s not marked down by the cluster", victim)
	}

	c.AddNode(victim, nodes[victim])
	if err := c.Probe(victim); err != nil {
		t.Fatal(err)
	}
	readA("holder back")
	if _, err := a.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if _, err := a.Ingest("/b.md", pdbBytes, bytes.NewReader(traj)); err != nil {
		t.Fatalf("ingest after the holder returned: %v", err)
	}
	readA("after the second dataset committed")
}

// TestClusterBackedIngestStrictOnDownNode: writes never half-land — with a
// replica holder down, ingest fails with the typed down error and recovery
// rolls the partial container back out of every surviving node.
func TestClusterBackedIngestStrictOnDownNode(t *testing.T) {
	pdbBytes, traj, _ := testDataset(t, 120, 4)
	a, c, nodes, _ := newClusterADA(t)

	// Take down a node that hosts this container's files.
	reps := (&placement.Table{Version: 1, Replication: 2,
		Nodes: []placement.Node{{Name: "n1"}, {Name: "n2"}, {Name: "n3"}},
	}).Place("/clu/traj.md/subset.p")
	victim := reps[0]
	c.AddNode(victim, clusterDownFS{})

	if _, err := a.Ingest("/traj.md", pdbBytes, bytes.NewReader(traj)); !errors.Is(err, vfs.ErrBackendDown) {
		t.Fatalf("ingest with replica down = %v, want ErrBackendDown", err)
	}

	// Node returns; recovery erases the partial ingest everywhere.
	c.AddNode(victim, nodes[victim])
	if err := c.Probe(victim); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	for name, fsys := range nodes {
		err := vfs.Walk(fsys, "/", func(p string, info vfs.FileInfo) error {
			if !info.IsDir {
				t.Errorf("node %s still holds %s after rollback", name, p)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// A clean ingest now succeeds end to end.
	if _, err := a.Ingest("/traj.md", pdbBytes, bytes.NewReader(traj)); err != nil {
		t.Fatal(err)
	}
	if got := subsetSig(t, a, "/traj.md", TagProtein); got == "" {
		t.Fatal("empty signature")
	}
}
