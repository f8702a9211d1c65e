package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"sort"
	"testing"
)

// benchmarkSpec is BENCHMARK.json as the driver reads it.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

func names(defs []struct{ Name string }) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	sort.Strings(out)
	return out
}

func metricNames(r *result) []string {
	out := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs every workload, untraced and traced, on a dataset small
// enough for tier-1 (1/40 scale, 10 frames, a warm-up and one timed round
// per pass) and holds the
// program to BENCHMARK.json: the same workloads, exactly the metrics it
// names, no failed operation, and layer self times that add up to what
// the harness timed.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var printed bytes.Buffer
	if printSpec(&printed, int(defaultConfig().seconds)) != 0 || !bytes.Equal(printed.Bytes(), raw) {
		t.Errorf("BENCHMARK.json is not what --spec prints; regenerate it")
	}
	var have []string
	for _, m := range workloads {
		have = append(have, m.name)
	}
	sort.Strings(have)
	if want := names(spec.Workloads); !slices.Equal(have, want) {
		t.Fatalf("workloads %v, BENCHMARK.json has %v", have, want)
	}

	cfg := defaultConfig()
	cfg.scale, cfg.frames, cfg.batchFrames = 40, 10, 2
	cfg.seconds, cfg.minRounds, cfg.setups = 0, 1, 2
	cfg.dir, cfg.outDir = t.TempDir(), t.TempDir()
	// The smoke creates and renames thousands of small files in a few
	// seconds. On a journalled disk that is most of its time, and now and
	// then a write sits for half a minute; use memory where the host has it.
	if shm, err := os.MkdirTemp("/dev/shm", "e2e-smoke-"); err == nil {
		t.Cleanup(func() { os.RemoveAll(shm) })
		cfg.dir = shm
	}
	for _, m := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(cfg, m, trace)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", m.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed: %v", m.name, trace, res.Failed, res.Attempted, res.Errors)
			}
			want := names(spec.EndToEnd)
			if trace {
				want = names(spec.PerLayer)
			}
			if got := metricNames(res); !slices.Equal(got, want) {
				t.Errorf("%s trace=%v: metrics %v, BENCHMARK.json has %v", m.name, trace, got, want)
			}
			for name, v := range res.Metrics {
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s: %s = %v", m.name, name, v.Value)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, must be positive", m.name, name, v.Value)
				}
			}
			if !trace {
				continue
			}
			if sum := res.Metrics["proc.layer_sum_over_total"].Value; sum < 0.97 || sum > 1.03 {
				t.Errorf("%s: layer self times are %.3f of the timed total", m.name, sum)
			}
			if fan := res.Metrics["placement.write_fanout"].Value; fan != replication {
				t.Errorf("%s: write fan-out %v, want %d", m.name, fan, replication)
			}
			for _, f := range []string{".trace.json", ".folded.txt"} {
				if st, err := os.Stat(cfg.outDir + "/" + m.name + f); err != nil || st.Size() == 0 {
					t.Errorf("%s: no %s written: %v", m.name, f, err)
				}
			}
		}
	}
	if ents, err := os.ReadDir(cfg.dir); err != nil || len(ents) != 0 {
		t.Errorf("store root not left empty: %v %v", ents, err)
	}
}

// TestResolve builds the tree the way two overlapping callers produce it:
// each child goes to a parent that contains it and has no call open, and
// self time is the parent's interval less what its children cover.
func TestResolve(t *testing.T) {
	mk := func(lv level, stack, node int8, key int32, start, end int64) span {
		return span{layer: "l", op: "o", lv: lv, stack: stack, node: node, rep: -1, key: key, start: start, end: end}
	}
	rec := &recorder{spans: []span{ // in start order, as resolve sorts them
		mk(lvRoot, 0, -1, 7, 0, 100),     // 0: caller A
		mk(lvRoot, 0, -1, 8, 10, 90),     // 1: caller B, overlapping A
		mk(lvCluster, 0, -1, -1, 20, 40), // 2: contained by both; B started last
		mk(lvPool, 0, 1, -1, 22, 30),     // 3: under 2
		mk(lvNode, -1, 1, -1, 24, 28),    // 4: under 3: same node
		mk(lvNode, -1, 2, -1, 31, 33),    // 5: another node: no pool span there, falls to 2
		mk(lvCluster, 0, -1, -1, 35, 50), // 6: B still has 2 open, so it must be A's
		mk(lvCluster, 1, -1, -1, 60, 70), // 7: another stack: no parent
	}}
	spans := rec.resolve()
	wantParent := []int32{-1, -1, 1, 2, 3, 2, 0, -1}
	for i, want := range wantParent {
		if spans[i].parent != want {
			t.Errorf("span %d: parent %d, want %d", i, spans[i].parent, want)
		}
	}
	if got := spans[2].self(); got != 20-8-2 {
		t.Errorf("span 2 self = %d, want 10", got)
	}
	if spans[4].root != 1 || spans[4].key != 8 || spans[4].stack != 0 {
		t.Errorf("span 4 did not inherit its request: root %d key %d stack %d", spans[4].root, spans[4].key, spans[4].stack)
	}
	var self, roots int64
	for i := range spans {
		self += spans[i].self()
		if spans[i].parent < 0 {
			roots += spans[i].dur()
		}
	}
	if self != roots {
		t.Errorf("self times sum to %d, roots to %d", self, roots)
	}
}

func TestVerdict(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	if q1, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256}); q1 != 3.5 || q3 != 160 {
		t.Errorf("quartiles = %v, %v, want 3.5, 160", q1, q3)
	}
	lower := metricDef{Name: "t", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "r", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		def  metricDef
		a, b []float64
		want string
	}{
		{lower, steady, []float64{105, 104, 106, 105, 105}, "ok"},
		{lower, steady, []float64{115, 114, 116, 115, 115}, "regressed"},
		{higher, steady, []float64{85, 84, 86, 85, 85}, "regressed"},
		{higher, steady, []float64{115, 114, 116, 115, 115}, "ok"},
		{lower, steady, []float64{80, 120, 100, 60, 140}, "unresolved"},
		{lower, []float64{100, 130, 160, 190, 220}, []float64{50, 60, 70, 80, 90}, "ok"}, // wide, but every run better
	} {
		if got := verdict(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.def.Better, c.a, c.b, got, c.want)
		}
	}
}
