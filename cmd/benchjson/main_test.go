package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	r, ok := parseLine("BenchmarkParallelDecode/workers-4-8   \t 50\t  21565178 ns/op\t 145.23 MB/s\t 3517820 B/op\t     146 allocs/op")
	if !ok {
		t.Fatal("line rejected")
	}
	if r.Name != "BenchmarkParallelDecode/workers-4-8" || r.Iterations != 50 {
		t.Fatalf("header parse: %+v", r)
	}
	if r.NsPerOp != 21565178 || r.MBPerS != 145.23 || r.BytesPerOp != 3517820 || r.AllocsPerOp != 146 {
		t.Fatalf("unit parse: %+v", r)
	}

	r, ok = parseLine("BenchmarkPlaybackPrefetch/sequential/prefetch 	       1	  21863671 ns/op	         0.0003489 vstall")
	if !ok {
		t.Fatal("custom-metric line rejected")
	}
	if r.Metrics["vstall"] != 0.0003489 {
		t.Fatalf("custom metric: %+v", r.Metrics)
	}

	for _, bad := range []string{"", "PASS", "ok  \trepro\t1.2s", "goos: linux", "BenchmarkX notanumber 3 ns/op"} {
		if _, ok := parseLine(bad); ok {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestCanonicalName(t *testing.T) {
	cases := []struct {
		name string
		cpus float64 // 0 = no cpus metric
		want string
	}{
		// 8-proc run: the -8 suffix is the procs count and strips.
		{"BenchmarkParallelDecode/workers-4-8", 8, "BenchmarkParallelDecode/workers-4"},
		// 1-proc run: go test appends no suffix, nothing to strip.
		{"BenchmarkParallelDecode/workers-4", 1, "BenchmarkParallelDecode/workers-4"},
		// Without the cpus metric the trailing -4 is ambiguous: keep it.
		{"BenchmarkParallelDecode/workers-4", 0, "BenchmarkParallelDecode/workers-4"},
		{"BenchmarkXTCDecode-8", 8, "BenchmarkXTCDecode"},
	}
	for _, c := range cases {
		r := Result{Name: c.name}
		if c.cpus > 0 {
			r.Metrics = map[string]float64{"cpus": c.cpus}
		}
		if got := canonicalName(r); got != c.want {
			t.Errorf("canonicalName(%q, cpus=%g) = %q, want %q", c.name, c.cpus, got, c.want)
		}
	}
}

func TestCompareResultsRegression(t *testing.T) {
	base := []Result{
		{Name: "BenchmarkA", MBPerS: 100, NsPerOp: 1000},
		{Name: "BenchmarkB", NsPerOp: 1000},
		{Name: "BenchmarkGone", NsPerOp: 5},
	}
	fresh := []Result{
		{Name: "BenchmarkA", MBPerS: 80, NsPerOp: 1250}, // -20% MB/s: regression at bar 15
		{Name: "BenchmarkB", NsPerOp: 1100},             // +10% ns/op: inside the bar
		{Name: "BenchmarkNew", NsPerOp: 7},
	}
	rows, failed := compareResults(base, fresh, 15)
	if !failed {
		t.Fatal("20% throughput drop not flagged")
	}
	status := map[string]string{}
	for _, r := range rows {
		status[r.name] = r.status
	}
	want := map[string]string{
		"BenchmarkA": "REGRESSION", "BenchmarkB": "ok",
		"BenchmarkGone": "gone", "BenchmarkNew": "new",
	}
	for name, st := range want {
		if status[name] != st {
			t.Errorf("%s: status %q, want %q", name, status[name], st)
		}
	}

	// The same fresh numbers pass a looser bar; gone/new rows never fail.
	if _, failed := compareResults(base, fresh, 25); failed {
		t.Error("25% bar still failed")
	}
	// ns/op regression beyond the bar fails too.
	fresh[1].NsPerOp = 1300
	if _, failed := compareResults(base, fresh, 15); !failed {
		t.Error("30% ns/op slowdown not flagged")
	}
}

// TestRunCompareEndToEnd drives the gate exactly as `make bench-check` does,
// including the cross-machine name canonicalization (suffix-free 1-proc
// baseline vs an 8-proc fresh run).
func TestRunCompareEndToEnd(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rs []Result) string {
		data, err := json.Marshal(rs)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cpus8 := map[string]float64{"cpus": 8}
	baseline := write("old.json", []Result{
		{Name: "BenchmarkXTCDecode", MBPerS: 140, NsPerOp: 100},
		{Name: "BenchmarkStreamDecode/serial", MBPerS: 140, NsPerOp: 100},
		{Name: "BenchmarkStreamDecode/ahead", MBPerS: 150, NsPerOp: 95},
	})
	good := write("new.json", []Result{
		{Name: "BenchmarkXTCDecode-8", MBPerS: 500, NsPerOp: 30, Metrics: cpus8},
		{Name: "BenchmarkStreamDecode/serial-8", MBPerS: 450, NsPerOp: 33, Metrics: cpus8},
		{Name: "BenchmarkStreamDecode/ahead-8", MBPerS: 1500, NsPerOp: 10, Metrics: cpus8},
	})

	var out strings.Builder
	if code := runCompare(&out, baseline, good, 15); code != 0 {
		t.Fatalf("good run exited %d:\n%s", code, out.String())
	}
	for _, want := range []string{"BenchmarkStreamDecode/ahead ", "RESULT: ok"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}

	// Feeding the stale numbers as the fresh run must fail the gate: the
	// improved baseline regressed.
	out.Reset()
	if code := runCompare(&out, good, baseline, 15); code != 1 {
		t.Fatalf("stale run exited %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") || !strings.Contains(out.String(), "RESULT: FAIL") {
		t.Errorf("stale run output:\n%s", out.String())
	}

	// Unreadable input is a usage error, not a gate verdict.
	if code := runCompare(&out, baseline, filepath.Join(dir, "missing.json"), 15); code != 2 {
		t.Errorf("missing file exited %d", code)
	}
}
