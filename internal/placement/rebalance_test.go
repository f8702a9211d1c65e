package placement

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/vfs"
)

// seedCluster writes n containers of two files each through the cluster
// and returns the payloads by path.
func seedCluster(t *testing.T, c *Cluster, n int) map[string][]byte {
	t.Helper()
	payloads := map[string][]byte{}
	for i := 0; i < n; i++ {
		for _, f := range []string{"subset.0-9", ".plfs_index"} {
			name := fmt.Sprintf("/containers/traj-%d/%s", i, f)
			payloads[name] = []byte(fmt.Sprintf("bytes of %s", name))
			if err := vfs.WriteFile(c, name, payloads[name]); err != nil {
				t.Fatal(err)
			}
		}
	}
	return payloads
}

// assertLayout checks the exactly-one-copy-per-replica invariant: every
// file exists byte-identically on each node of its replica set and
// nowhere else.
func assertLayout(t *testing.T, c *Cluster, mems map[string]*vfs.MemFS, payloads map[string][]byte) {
	t.Helper()
	tbl := c.Table()
	for name, want := range payloads {
		reps := tbl.Place(name)
		for node, m := range mems {
			exists := vfs.Exists(m, name)
			if contains(reps, node) {
				if !exists {
					t.Fatalf("v%d: %s missing on replica %s", tbl.Version, name, node)
				}
				got, err := vfs.ReadFile(m, name)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("v%d: %s on %s diverged: %v", tbl.Version, name, node, err)
				}
			} else if exists {
				t.Fatalf("v%d: surplus copy of %s on %s (replicas %v)", tbl.Version, name, node, reps)
			}
		}
		got, err := vfs.ReadFile(c, name)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("v%d: cluster read of %s: %v", tbl.Version, name, err)
		}
	}
}

func TestRebalanceNodeJoin(t *testing.T) {
	c, mems := newTestCluster(t, Config{})
	payloads := seedCluster(t, c, 16)
	assertLayout(t, c, mems, payloads)

	mems["n4"] = vfs.NewMemFS()
	c.AddNode("n4", mems["n4"])
	next := &Table{Version: 2, Replication: 2,
		Nodes: append(threeNodes(), Node{Name: "n4", Addr: "a4"})}
	dirs, err := c.DataDirs("/")
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 16 {
		t.Fatalf("DataDirs found %d dirs, want 16", len(dirs))
	}
	rep, err := c.Rebalance(next, dirs)
	if err != nil {
		t.Fatal(err)
	}
	if c.Table().Version != 2 {
		t.Fatalf("table not installed: v%d", c.Table().Version)
	}
	if rep.FilesCopied == 0 || rep.BytesCopied == 0 {
		t.Fatalf("report counted nothing: %+v", rep)
	}
	assertLayout(t, c, mems, payloads)

	// No staging leftovers anywhere.
	for node, m := range mems {
		vfs.Walk(m, "/", func(p string, info vfs.FileInfo) error {
			if !info.IsDir && bytes.Contains([]byte(p), []byte(rebalStaging)) {
				t.Errorf("staging leftover %s on %s", p, node)
			}
			return nil
		})
	}

	// Rerunning against the same target is a planned no-op.
	again := &Table{Version: 3, Replication: 2, Nodes: next.Nodes}
	rep2, err := c.Rebalance(again, dirs)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.FilesCopied != 0 || rep2.Dirs != 0 {
		t.Fatalf("idempotent rerun copied: %+v", rep2)
	}
}

func TestRebalanceNodeDrain(t *testing.T) {
	c, mems := newTestCluster(t, Config{})
	mems["n4"] = vfs.NewMemFS()
	c.AddNode("n4", mems["n4"])
	four := &Table{Version: 2, Replication: 2,
		Nodes: append(threeNodes(), Node{Name: "n4", Addr: "a4"})}
	if err := c.SetTable(four); err != nil {
		t.Fatal(err)
	}
	payloads := seedCluster(t, c, 16)

	// Drain n4 back out of the cluster.
	next := &Table{Version: 3, Replication: 2, Nodes: threeNodes()}
	dirs, err := c.DataDirs("/")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Rebalance(next, dirs); err != nil {
		t.Fatal(err)
	}
	assertLayout(t, c, mems, payloads)
	// The drained node holds no files at all.
	vfs.Walk(mems["n4"], "/", func(p string, info vfs.FileInfo) error {
		if !info.IsDir {
			t.Errorf("drained node still holds %s", p)
		}
		return nil
	})
}

func TestRebalanceCrashMidCopyIsRerunnable(t *testing.T) {
	c, mems := newTestCluster(t, Config{})
	payloads := seedCluster(t, c, 12)

	// n4's FS dies partway through the copy phase: fail every write after
	// the first few, then kill the run.
	mems["n4"] = vfs.NewMemFS()
	crash := &crashAfterFS{FS: mems["n4"], allow: 5}
	c.AddNode("n4", crash)
	next := &Table{Version: 2, Replication: 2,
		Nodes: append(threeNodes(), Node{Name: "n4", Addr: "a4"})}
	dirs, err := c.DataDirs("/")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Rebalance(next, dirs); err == nil {
		t.Fatal("rebalance survived a crashing target")
	}
	// The old table still routes: nothing is lost, reads stay intact.
	if c.Table().Version != 1 {
		t.Fatalf("crashed rebalance installed table v%d", c.Table().Version)
	}
	for name, want := range payloads {
		got, err := vfs.ReadFile(c, name)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("after crash, read %s: %v", name, err)
		}
	}

	// Heal the node and rerun the same rebalance: it converges.
	c.AddNode("n4", mems["n4"])
	if _, err := c.Rebalance(next, dirs); err != nil {
		t.Fatalf("rerun after crash: %v", err)
	}
	assertLayout(t, c, mems, payloads)
}

// crashAfterFS lets allow file creations through, then fails everything.
type crashAfterFS struct {
	vfs.FS
	allow int
}

func (f *crashAfterFS) Create(name string) (vfs.File, error) {
	if f.allow <= 0 {
		return nil, vfs.ErrBackendDown
	}
	f.allow--
	return f.FS.Create(name)
}

func TestRebalanceRejectsStaleTarget(t *testing.T) {
	c, _ := newTestCluster(t, Config{})
	same := &Table{Version: 1, Replication: 2, Nodes: threeNodes()}
	if _, err := c.Rebalance(same, nil); err == nil {
		t.Fatal("rebalance to the same version accepted")
	}
	ghost := &Table{Version: 2, Replication: 2,
		Nodes: append(threeNodes(), Node{Name: "ghost"})}
	if _, err := c.Rebalance(ghost, nil); err == nil {
		t.Fatal("rebalance to an unregistered node accepted")
	}
}
