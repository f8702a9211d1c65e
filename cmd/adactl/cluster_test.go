package main

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/placement"
	"repro/internal/rpc"
	"repro/internal/vfs"
)

// startClusterNode serves a MemFS over loopback and returns its address
// plus the store for direct inspection.
func startClusterNode(t *testing.T) (string, *vfs.MemFS) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	store := vfs.NewMemFS()
	srv := rpc.NewServer(store, nil)
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close(); ln.Close() })
	return ln.Addr().String(), store
}

func tableFile(t *testing.T, tbl *placement.Table) string {
	t.Helper()
	data, err := tbl.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "table.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestClusterPushStatusRebalance walks the whole operator flow over real
// TCP nodes: seed a 2-node table, ingest data through it, grow the cluster
// to 3 nodes with a rebalance, and confirm status and on-node layout.
func TestClusterPushStatusRebalance(t *testing.T) {
	addr1, mem1 := startClusterNode(t)
	addr2, mem2 := startClusterNode(t)

	v1 := &placement.Table{
		Version: 1, Replication: 2,
		Nodes: []placement.Node{{Name: "n1", Addr: addr1}, {Name: "n2", Addr: addr2}},
	}
	var out bytes.Buffer
	if err := cmdClusterPush(&out, []string{"-table", tableFile(t, v1)}); err != nil {
		t.Fatalf("push: %v\n%s", err, out.String())
	}

	out.Reset()
	if err := cmdClusterStatus(&out, []string{"-addr", addr1}); err != nil {
		t.Fatalf("status: %v\n%s", err, out.String())
	}
	for _, want := range []string{"placement table v1", "replication 2", "up"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("status output missing %q:\n%s", want, out.String())
		}
	}

	// Write a few containers through the 2-node cluster, as an ADA would.
	fss := map[string]vfs.FS{
		"n1": rpc.NewPool(addr1, 1, nil, rpc.DefaultRetryPolicy()),
		"n2": rpc.NewPool(addr2, 1, nil, rpc.DefaultRetryPolicy()),
	}
	c, err := placement.NewCluster(v1, fss, placement.Config{})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("frame bytes")
	for _, name := range []string{"/c/t0/subset.p", "/c/t1/subset.p", "/c/t2/subset.p"} {
		if err := vfs.WriteFile(c, name, payload); err != nil {
			t.Fatal(err)
		}
	}

	// Grow to three nodes.
	addr3, mem3 := startClusterNode(t)
	v2 := &placement.Table{
		Version: 2, Replication: 2,
		Nodes: []placement.Node{
			{Name: "n1", Addr: addr1}, {Name: "n2", Addr: addr2}, {Name: "n3", Addr: addr3},
		},
	}
	out.Reset()
	if err := cmdClusterRebalance(&out, []string{"-addr", addr1, "-table", tableFile(t, v2)}); err != nil {
		t.Fatalf("rebalance: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "table v2 installed") {
		t.Errorf("rebalance did not publish v2:\n%s", out.String())
	}

	// Every file lives on exactly its v2 replicas, byte-identical.
	mems := map[string]*vfs.MemFS{"n1": mem1, "n2": mem2, "n3": mem3}
	for _, name := range []string{"/c/t0/subset.p", "/c/t1/subset.p", "/c/t2/subset.p"} {
		reps := v2.Place(name)
		for node, m := range mems {
			exists := vfs.Exists(m, name)
			if in := contains(reps, node); in != exists {
				t.Errorf("%s on %s: present=%v, want %v (replicas %v)", name, node, exists, in, reps)
			}
			if exists {
				got, err := vfs.ReadFile(m, name)
				if err != nil || !bytes.Equal(got, payload) {
					t.Errorf("%s on %s diverged: %v", name, node, err)
				}
			}
		}
	}

	// Status against the grown cluster reports the new table everywhere.
	out.Reset()
	if err := cmdClusterStatus(&out, []string{"-addr", addr3}); err != nil {
		t.Fatalf("status after rebalance: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "placement table v2") ||
		strings.Count(out.String(), "table v2") < 3 {
		t.Errorf("nodes disagree about the table:\n%s", out.String())
	}

	// A stale target is refused before any data moves.
	if err := cmdClusterRebalance(&out, []string{"-addr", addr1, "-table", tableFile(t, v1)}); err == nil {
		t.Fatal("rebalance to a stale table accepted")
	}
}

func TestCmdClusterErrors(t *testing.T) {
	var out bytes.Buffer
	if err := cmdCluster(&out, nil); err == nil {
		t.Fatal("missing subcommand accepted")
	}
	if err := cmdCluster(&out, []string{"bogus"}); err == nil {
		t.Fatal("unknown subcommand accepted")
	}
	if err := cmdClusterStatus(&out, nil); err == nil {
		t.Fatal("status without -addr accepted")
	}
	if err := cmdClusterPush(&out, nil); err == nil {
		t.Fatal("push without -table accepted")
	}
	if err := cmdClusterRebalance(&out, nil); err == nil {
		t.Fatal("rebalance without flags accepted")
	}
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}
