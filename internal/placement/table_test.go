package placement

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

func threeNodes() []Node {
	return []Node{{Name: "n1", Addr: "a1"}, {Name: "n2", Addr: "a2"}, {Name: "n3", Addr: "a3"}}
}

func TestPlaceDeterministicAndDistinct(t *testing.T) {
	tbl := &Table{Version: 1, Replication: 2, Nodes: threeNodes()}
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		dir := fmt.Sprintf("/containers/set-%d", i)
		reps := tbl.PlaceDir(dir)
		if len(reps) != 2 {
			t.Fatalf("PlaceDir(%s) = %v, want 2 replicas", dir, reps)
		}
		if reps[0] == reps[1] {
			t.Fatalf("PlaceDir(%s) repeated node %v", dir, reps)
		}
		again := tbl.PlaceDir(dir)
		if reps[0] != again[0] || reps[1] != again[1] {
			t.Fatalf("PlaceDir(%s) unstable: %v then %v", dir, reps, again)
		}
	}
}

func TestPlaceKeysOnParentDir(t *testing.T) {
	tbl := &Table{Version: 1, Replication: 2, Nodes: threeNodes()}
	a := tbl.Place("/c/traj.demo/subset.0-9")
	b := tbl.Place("/c/traj.demo/staging.subset.0-9")
	cIdx := tbl.Place("/c/traj.demo/.plfs_index")
	if fmt.Sprint(a) != fmt.Sprint(b) || fmt.Sprint(a) != fmt.Sprint(cIdx) {
		t.Fatalf("files of one container scattered: %v %v %v", a, b, cIdx)
	}
	if key := ContainerKey("/c/traj.demo/subset.0-9"); key != "/c/traj.demo" {
		t.Fatalf("ContainerKey = %q", key)
	}
}

func TestPinsOverrideRing(t *testing.T) {
	tbl := &Table{
		Version: 3, Replication: 2, Nodes: threeNodes(),
		Pins: map[string][]string{"/c/pinned": {"n3", "n1"}},
	}
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
	reps := tbl.Place("/c/pinned/file")
	if len(reps) != 2 || reps[0] != "n3" || reps[1] != "n1" {
		t.Fatalf("pinned placement = %v, want [n3 n1]", reps)
	}
}

func TestRingStabilityOnMembershipChange(t *testing.T) {
	// Adding a fourth node must move only a minority of primaries — the
	// consistent-hash property that keeps rebalances small.
	before := &Table{Version: 1, Replication: 2, Nodes: threeNodes()}
	after := &Table{Version: 2, Replication: 2,
		Nodes: append(threeNodes(), Node{Name: "n4", Addr: "a4"})}
	const keys = 400
	moved := 0
	for i := 0; i < keys; i++ {
		dir := fmt.Sprintf("/containers/key-%d", i)
		if before.PlaceDir(dir)[0] != after.PlaceDir(dir)[0] {
			moved++
		}
	}
	// Expect ~1/4 of primaries to move; allow generous slack.
	if moved > keys/2 {
		t.Fatalf("%d/%d primaries moved on one node join; ring is unstable", moved, keys)
	}
	if moved == 0 {
		t.Fatal("no primaries moved; the new node gets no load")
	}
}

func TestTableMarshalRoundTrip(t *testing.T) {
	tbl := &Table{
		Version: 7, Replication: 2, Nodes: threeNodes(),
		Pins: map[string][]string{"/c/pinned": {"n2", "n3"}},
	}
	data, err := tbl.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 7 || got.Replication != 2 || len(got.Nodes) != 3 {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	if got.NodeAddr("n2") != "a2" || got.NodeAddr("missing") != "" {
		t.Fatalf("NodeAddr broken: %q", got.NodeAddr("n2"))
	}
	if fmt.Sprint(got.Place("/c/pinned/x")) != fmt.Sprint(tbl.Place("/c/pinned/x")) {
		t.Fatal("round-tripped table places differently")
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		tbl  *Table
		want string
	}{
		{"zero-replication", &Table{Replication: 0, Nodes: threeNodes()}, "replication"},
		{"too-few-nodes", &Table{Replication: 4, Nodes: threeNodes()}, "cannot hold"},
		{"dup-node", &Table{Replication: 1, Nodes: []Node{{Name: "a"}, {Name: "a"}}}, "duplicate"},
		{"unnamed-node", &Table{Replication: 1, Nodes: []Node{{}}}, "no name"},
		{"pin-unknown-node", &Table{Replication: 1, Nodes: threeNodes(),
			Pins: map[string][]string{"/c": {"ghost"}}}, "unknown node"},
		{"pin-too-short", &Table{Replication: 2, Nodes: threeNodes(),
			Pins: map[string][]string{"/c": {"n1"}}}, "need 2"},
		{"pin-repeat", &Table{Replication: 2, Nodes: threeNodes(),
			Pins: map[string][]string{"/c": {"n1", "n1"}}}, "repeats"},
		{"pin-unclean", &Table{Replication: 1, Nodes: threeNodes(),
			Pins: map[string][]string{"c/": {"n1"}}}, "cleaned"},
	}
	for _, tc := range cases {
		err := tc.tbl.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestPlanMoves(t *testing.T) {
	before := &Table{Version: 1, Replication: 2, Nodes: threeNodes()}
	after := &Table{Version: 2, Replication: 2,
		Nodes: append(threeNodes(), Node{Name: "n4", Addr: "a4"})}
	var dirs []string
	for i := 0; i < 64; i++ {
		dirs = append(dirs, fmt.Sprintf("/containers/key-%d", i))
	}
	moves := PlanMoves(before, after, dirs)
	if len(moves) == 0 {
		t.Fatal("no moves planned for a node join")
	}
	for _, mv := range moves {
		o, n := before.PlaceDir(mv.Dir), after.PlaceDir(mv.Dir)
		for _, add := range mv.Add {
			if !contains(n, add) || contains(o, add) {
				t.Fatalf("%s: bogus add %s (old %v new %v)", mv.Dir, add, o, n)
			}
		}
		for _, drop := range mv.Drop {
			if !contains(o, drop) || contains(n, drop) {
				t.Fatalf("%s: bogus drop %s (old %v new %v)", mv.Dir, drop, o, n)
			}
		}
		if len(mv.Src) == 0 {
			t.Fatalf("%s: move has no source", mv.Dir)
		}
		for _, src := range mv.Src {
			if !contains(o, src) {
				t.Fatalf("%s: source %s is not an old holder %v", mv.Dir, src, o)
			}
		}
	}
	// Unchanged layouts plan nothing.
	if again := PlanMoves(before, before, dirs); len(again) != 0 {
		t.Fatalf("PlanMoves(same, same) = %d moves", len(again))
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

// FuzzPlacementTable drives Unmarshal, the parser for the table bytes a peer
// serves (a node stores them opaque; adanode -join and adactl parse them),
// with arbitrary input. Rules: no panic; allocation bounded by the input
// length; and an accepted table places any directory on exactly Replication
// distinct nodes, all of them its own.
func FuzzPlacementTable(f *testing.F) {
	for _, tbl := range []*Table{
		{Version: 1, Replication: 2, Nodes: threeNodes()},
		{Version: 2, Replication: 2, Nodes: append(threeNodes(), Node{Name: "n4", Addr: "a4"})},
		{Version: 7, Replication: 2, Nodes: threeNodes(), Pins: map[string][]string{"/c/pinned": {"n2", "n3"}}},
		{Version: 1, Replication: 1, Nodes: []Node{{Name: "solo"}}, Pins: map[string][]string{"/": {"solo"}}},
	} {
		data, err := tbl.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, "/c/pinned")
	}
	f.Add([]byte(`{"replication": 3, "nodes": [{"name": "a"}, {"name": "b"}]}`), "/")
	f.Add([]byte(`null`), "")
	f.Fuzz(func(t *testing.T, data []byte, dir string) {
		var tbl *Table
		var err error
		var reps []string
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if tbl, err = Unmarshal(data); err == nil {
			reps = tbl.PlaceDir(dir)
		}
		runtime.ReadMemStats(&after)
		// Each node costs its ring points (64 hashes and entries) for at
		// least 12 bytes of JSON, hence the per-byte slack.
		got := after.TotalAlloc - before.TotalAlloc
		if limit := uint64(512*(len(data)+len(dir)) + 64<<10); got > limit {
			t.Fatalf("a %d-byte table and a %d-byte directory allocated %d bytes, limit %d", len(data), len(dir), got, limit)
		}
		if err != nil {
			return
		}
		if len(reps) != tbl.Replication {
			t.Fatalf("PlaceDir(%q) = %v, want %d replicas", dir, reps, tbl.Replication)
		}
		seen := map[string]bool{}
		for _, name := range reps {
			if seen[name] {
				t.Fatalf("PlaceDir(%q) = %v repeats %q", dir, reps, name)
			}
			seen[name] = true
			if !contains(nodeNames(tbl.Nodes), name) {
				t.Fatalf("PlaceDir(%q) = %v names %q, not a table node", dir, reps, name)
			}
		}
	})
}

func nodeNames(nodes []Node) []string {
	names := make([]string, len(nodes))
	for i, n := range nodes {
		names[i] = n.Name
	}
	return names
}
