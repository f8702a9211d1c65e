package placement_test

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"repro/internal/placement"
	"repro/internal/rpc"
	"repro/internal/vfs"
)

// TestRebalanceMovesLargeDroppingOverRPC drains a holder of a directory whose
// one file is 40 MiB — past what a node serves in a single read — out of a
// three-node cluster of real rpc node clients. Rebalance moves droppings whole
// (vfs.ReadFile from the source, and twice from the destination to verify),
// so each of those reads has to arrive in chunks; a subset dropping of the
// end-to-end benchmark's dataset is larger than this one.
func TestRebalanceMovesLargeDroppingOverRPC(t *testing.T) {
	if testing.Short() {
		t.Skip("moves 40 MiB over loopback several times")
	}
	policy := matrixPolicy()
	policy.CallTimeout = 10 * time.Second // 16 MiB calls under the race detector
	nodes := map[string]*matrixNode{}
	fss := map[string]vfs.FS{}
	var tblNodes []placement.Node
	for _, name := range []string{"n1", "n2", "n3"} {
		n := &matrixNode{name: name, disk: vfs.NewMemFS()}
		n.start(t)
		n.client = rpc.DialLazy(n.addr, nil, policy)
		nodes[name] = n
		fss[name] = n.client
		tblNodes = append(tblNodes, placement.Node{Name: name, Addr: n.addr})
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.client.Close()
			n.stop()
		}
	})
	tbl := &placement.Table{Version: 1, Replication: 2, Nodes: tblNodes}
	c, err := placement.NewCluster(tbl, fss, placement.Config{})
	if err != nil {
		t.Fatal(err)
	}

	const name = "/containers/big/subset.p"
	big := make([]byte, 40<<20+1)
	rand.New(rand.NewSource(6)).Read(big)
	if err := vfs.WriteFile(c, name, big); err != nil {
		t.Fatal(err)
	}
	holders := tbl.Place(name)
	var stay []placement.Node
	for _, n := range tblNodes {
		if n.Name != holders[0] {
			stay = append(stay, n)
		}
	}
	next := &placement.Table{Version: 2, Replication: 2, Nodes: stay}
	dirs, err := c.DataDirs("/")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Rebalance(next, dirs)
	if err != nil {
		t.Fatalf("rebalance of a %d-byte dropping: %v", len(big), err)
	}
	if rep.FilesCopied != 1 || rep.BytesCopied != int64(len(big)) || rep.FilesDropped != 1 {
		t.Errorf("report %+v, want the one file copied once and dropped once", rep)
	}
	for _, n := range tblNodes {
		got, err := vfs.ReadFile(nodes[n.Name].disk, name)
		if n.Name == holders[0] {
			if err == nil {
				t.Errorf("drained node %s still holds the file", n.Name)
			}
			continue
		}
		if err != nil || !bytes.Equal(got, big) {
			t.Errorf("node %s holds %d bytes (%v), want the %d written", n.Name, len(got), err, len(big))
		}
	}
	if got, err := vfs.ReadFile(c, name); err != nil || !bytes.Equal(got, big) {
		t.Errorf("cluster read after the move: %d bytes, %v", len(got), err)
	}
}
