// Command benchjson converts `go test -bench` output on stdin into a JSON
// array on stdout, one object per benchmark result. Standard units map to
// fixed fields (ns_per_op, mb_per_s, bytes_per_op, allocs_per_op); any other
// unit — like the vstall virtual-stall metric — lands in the metrics map.
//
//	go test -run '^$' -bench StreamDecode -benchmem . | go run ./cmd/benchjson
//
// With -compare it instead diffs two such JSON files and acts as the CI
// perf-regression gate:
//
//	benchjson -compare old.json new.json -max-regress 15
//
// The delta table goes to stdout. The exit status is 1 when any shared
// benchmark regressed by more than -max-regress percent.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Result is one benchmark line.
type Result struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	MBPerS      float64            `json:"mb_per_s,omitempty"`
	BytesPerOp  int64              `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64              `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: fields[0], Iterations: iters}
	// The rest of the line is (value, unit) pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
		case "MB/s":
			r.MBPerS = v
		case "B/op":
			r.BytesPerOp = int64(v)
		case "allocs/op":
			r.AllocsPerOp = int64(v)
		default:
			if r.Metrics == nil {
				r.Metrics = map[string]float64{}
			}
			r.Metrics[unit] = v
		}
	}
	return r, true
}

// canonicalName undoes the "-GOMAXPROCS" suffix go test appends to benchmark
// names on multi-proc runs, so a baseline recorded on an N-core box compares
// against a run from an M-core one. The suffix is ambiguous by inspection
// (workers-4 ends in "-4" with no procs suffix at GOMAXPROCS=1), so only
// results that report their own "cpus" metric are rewritten, and only when
// the trailing number equals that metric.
func canonicalName(r Result) string {
	cpus, ok := r.Metrics["cpus"]
	if !ok || cpus <= 1 {
		return r.Name
	}
	suffix := "-" + strconv.Itoa(int(cpus))
	return strings.TrimSuffix(r.Name, suffix)
}

func loadResults(path string) ([]Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []Result
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

// deltaRow is one line of the comparison table.
type deltaRow struct {
	name     string
	unit     string  // "MB/s" or "ns/op"
	oldV     float64 // zero when the benchmark is new
	newV     float64 // zero when the benchmark vanished
	deltaPct float64 // positive = improvement, in the unit's "better" sense
	status   string  // "ok", "REGRESSION", "new", "gone"
}

// compareResults diffs two result sets by canonical name. Throughput
// (MB/s, higher better) is preferred when both sides report it; otherwise
// wall time (ns/op, lower better). A drop beyond maxRegress percent marks
// the row REGRESSION. Benchmarks on only one side are reported but never
// fail the gate — renames show up as a gone/new pair for a human to read.
func compareResults(base, fresh []Result, maxRegress float64) (rows []deltaRow, failed bool) {
	freshBy := map[string]Result{}
	for _, r := range fresh {
		freshBy[canonicalName(r)] = r
	}
	seen := map[string]bool{}
	for _, o := range base {
		name := canonicalName(o)
		seen[name] = true
		n, ok := freshBy[name]
		if !ok {
			rows = append(rows, deltaRow{name: name, unit: "ns/op", oldV: o.NsPerOp, status: "gone"})
			continue
		}
		row := deltaRow{name: name, status: "ok"}
		if o.MBPerS > 0 && n.MBPerS > 0 {
			row.unit, row.oldV, row.newV = "MB/s", o.MBPerS, n.MBPerS
			row.deltaPct = (n.MBPerS - o.MBPerS) / o.MBPerS * 100
		} else {
			row.unit, row.oldV, row.newV = "ns/op", o.NsPerOp, n.NsPerOp
			if o.NsPerOp > 0 {
				row.deltaPct = (o.NsPerOp - n.NsPerOp) / o.NsPerOp * 100
			}
		}
		if row.deltaPct < -maxRegress {
			row.status = "REGRESSION"
			failed = true
		}
		rows = append(rows, row)
	}
	for _, n := range fresh {
		if name := canonicalName(n); !seen[name] {
			rows = append(rows, deltaRow{name: name, unit: "ns/op", newV: n.NsPerOp, status: "new"})
		}
	}
	return rows, failed
}

func printDeltaTable(w io.Writer, rows []deltaRow, maxRegress float64) {
	fmt.Fprintf(w, "%-55s %14s %14s %9s  %s\n", "benchmark", "old", "new", "delta", "status")
	for _, r := range rows {
		val := func(v float64) string {
			if v == 0 {
				return "-"
			}
			return fmt.Sprintf("%.2f %s", v, r.unit)
		}
		delta := "-"
		if r.status == "ok" || r.status == "REGRESSION" {
			delta = fmt.Sprintf("%+.1f%%", r.deltaPct)
		}
		fmt.Fprintf(w, "%-55s %14s %14s %9s  %s\n", r.name, val(r.oldV), val(r.newV), delta, r.status)
	}
	fmt.Fprintf(w, "(regression bar: -%.0f%% on MB/s, +%.0f%% on ns/op)\n", maxRegress, maxRegress)
}

// runCompare drives the gate and returns the process exit code.
func runCompare(w io.Writer, oldPath, newPath string, maxRegress float64) int {
	base, err := loadResults(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	fresh, err := loadResults(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	rows, failed := compareResults(base, fresh, maxRegress)
	printDeltaTable(w, rows, maxRegress)
	if failed {
		fmt.Fprintln(w, "RESULT: FAIL")
		return 1
	}
	fmt.Fprintln(w, "RESULT: ok")
	return 0
}

func main() {
	compare := flag.Bool("compare", false, "compare two benchjson files: -compare old.json new.json")
	maxRegress := flag.Float64("max-regress", 15, "percent slowdown on any shared benchmark that fails the gate")
	flag.Parse()

	if *compare {
		// flag.Parse stops at the first positional argument, but the
		// documented invocation puts the gate options after the two file
		// paths; re-parse whatever followed them.
		args := flag.Args()
		if len(args) < 2 {
			fmt.Fprintln(os.Stderr, "usage: benchjson -compare old.json new.json [-max-regress pct]")
			os.Exit(2)
		}
		if len(args) > 2 {
			rest := flag.NewFlagSet("compare", flag.ExitOnError)
			maxRegress = rest.Float64("max-regress", *maxRegress, "percent slowdown that fails the gate")
			rest.Parse(args[2:])
			if rest.NArg() != 0 {
				fmt.Fprintln(os.Stderr, "benchjson: unexpected arguments:", rest.Args())
				os.Exit(2)
			}
		}
		os.Exit(runCompare(os.Stdout, args[0], args[1], *maxRegress))
	}

	var results []Result
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if r, ok := parseLine(sc.Text()); ok {
			results = append(results, r)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if results == nil {
		results = []Result{}
	}
	if err := enc.Encode(results); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
