// Command adaload drives a deterministic multi-tenant playback load through
// the serve fabric's discrete-event simulator and emits the latency
// percentiles in `go test -bench` format, so cmd/benchjson renders them
// into the committed BENCH_serve.json baseline:
//
//	go run ./cmd/adaload | go run ./cmd/benchjson > BENCH_serve.json
//
// Two scenarios run back to back over the same fabric configuration:
//
//	solo       the interactive viewers alone — the latency floor
//	contended  the same viewers plus a saturating bulk scan tenant
//
// Each scenario prints one p50 and one p99 line per tenant and per class
// (interactive/bulk), all in virtual nanoseconds, plus a makespan summary
// carrying the decode/coalesce/hit counts. Because the simulator is a
// single-threaded event loop on a virtual clock, identical flags produce
// bit-identical output — which is what lets `make serve-check` hold these
// percentiles to exact equality with the committed baseline.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/vmd"
)

// config is the parsed command line: workload shape and fabric sizing.
type config struct {
	viewers    int     // interactive tenants
	window     int     // frames per interactive replay window
	sweeps     int     // back-and-forth sweeps over the window
	thinkMS    float64 // viewer think time between reads
	iaAtoms    int     // interactive subset size (protein-only)
	scans      int     // parallel scans by the bulk tenant
	scanFrames int     // frames per bulk scan
	bulkAtoms  int     // bulk frame size (full system)
	cacheMB    int64   // shared frame-cache budget
	quantumKB  int64   // DRR quantum per scheduler visit
}

func parseFlags(args []string, stderr io.Writer) (*config, error) {
	cfg := &config{}
	fs := flag.NewFlagSet("adaload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.IntVar(&cfg.viewers, "viewers", 4, "interactive viewer tenants")
	fs.IntVar(&cfg.window, "window", 48, "frames per interactive replay window")
	fs.IntVar(&cfg.sweeps, "sweeps", 4, "back-and-forth sweeps per viewer")
	fs.Float64Var(&cfg.thinkMS, "think-ms", 5, "viewer think time between reads (ms)")
	fs.IntVar(&cfg.iaAtoms, "ia-atoms", 1000, "atoms per interactive (protein subset) frame")
	fs.IntVar(&cfg.scans, "scans", 4, "parallel scans by the bulk tenant")
	fs.IntVar(&cfg.scanFrames, "scan-frames", 4000, "frames per bulk scan")
	fs.IntVar(&cfg.bulkAtoms, "bulk-atoms", 40000, "atoms per bulk (full system) frame")
	fs.Int64Var(&cfg.cacheMB, "cache-mb", 64, "shared frame cache budget (MiB)")
	fs.Int64Var(&cfg.quantumKB, "quantum-kb", 512, "DRR quantum per scheduler visit (KiB)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() != 0 {
		fs.Usage()
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if cfg.viewers < 1 || cfg.window < 1 || cfg.sweeps < 1 {
		return nil, fmt.Errorf("-viewers, -window, and -sweeps must be at least 1")
	}
	return cfg, nil
}

func (cfg *config) fabric(reg *metrics.Registry) serve.Config {
	return serve.Config{
		CacheBytes:   cfg.cacheMB << 20,
		QuantumBytes: cfg.quantumKB << 10,
		Metrics:      reg,
	}
}

// interactiveSessions are the viewers: small protein-subset windows replayed
// back and forth with think time, starts staggered 1 ms apart.
func (cfg *config) interactiveSessions() []serve.SimSession {
	var out []serve.SimSession
	for n := 0; n < cfg.viewers; n++ {
		out = append(out, serve.SimSession{
			Tenant:  fmt.Sprintf("ia%d", n),
			Class:   "interactive",
			Logical: fmt.Sprintf("/ia%d", n),
			Tag:     "p",
			NAtoms:  cfg.iaAtoms,
			Frames:  cfg.window,
			Pattern: vmd.BackAndForth(cfg.window, cfg.sweeps),
			Think:   cfg.thinkMS / 1e3,
			Start:   float64(n) * 0.001,
		})
	}
	return out
}

// bulkSessions are one tenant's parallel full-trajectory scans with no think
// time: enough backlog to keep the decode server saturated.
func (cfg *config) bulkSessions() []serve.SimSession {
	var out []serve.SimSession
	for n := 0; n < cfg.scans; n++ {
		pattern := make([]int, cfg.scanFrames)
		for i := range pattern {
			pattern[i] = i
		}
		out = append(out, serve.SimSession{
			Tenant:  "bulk",
			Class:   "bulk",
			Logical: fmt.Sprintf("/bulk%d", n),
			Tag:     "misc",
			NAtoms:  cfg.bulkAtoms,
			Frames:  cfg.scanFrames,
			Pattern: pattern,
		})
	}
	return out
}

// trimAffix returns s without prefix and suffix, reporting whether both were
// present around a non-empty middle.
func trimAffix(s, prefix, suffix string) (string, bool) {
	if strings.HasPrefix(s, prefix) && strings.HasSuffix(s, suffix) &&
		len(s) > len(prefix)+len(suffix) {
		return s[len(prefix) : len(s)-len(suffix)], true
	}
	return "", false
}

// emitScenario simulates sessions against a fresh fabric and writes the
// bench-formatted percentile lines. The iterations column is the sample
// count behind each percentile.
func emitScenario(w io.Writer, cfg *config, name string, sessions []serve.SimSession) serve.SimReport {
	reg := metrics.NewRegistry()
	rep := serve.Simulate(cfg.fabric(reg), serve.DefaultCostModel, sessions)
	snap := reg.Snapshot()
	var hists []string
	for n := range snap.Histograms {
		hists = append(hists, n)
	}
	sort.Strings(hists)
	for _, n := range hists {
		var label string
		if t, ok := trimAffix(n, "serve.tenant.", ".read_ns"); ok {
			label = "tenant=" + t
		} else if c, ok := trimAffix(n, "serve.class.", ".read_ns"); ok {
			label = "class=" + c
		} else {
			continue
		}
		h := snap.Histograms[n]
		fmt.Fprintf(w, "BenchmarkServe/%s/%s/p50 \t%d\t%d ns/op\n", name, label, h.Count, h.P50)
		fmt.Fprintf(w, "BenchmarkServe/%s/%s/p99 \t%d\t%d ns/op\n", name, label, h.Count, h.P99)
	}
	fmt.Fprintf(w, "BenchmarkServe/%s/makespan \t%d\t%d ns/op \t%d decodes \t%d coalesced \t%d hits \t%d ahead\n",
		name, rep.Reads, int64(rep.Makespan*1e9), rep.Decodes, rep.Coalesced, rep.Hits, rep.Ahead)
	return rep
}

func run(cfg *config, stdout, stderr io.Writer) error {
	solo := emitScenario(stdout, cfg, "solo", cfg.interactiveSessions())
	cont := emitScenario(stdout, cfg, "contended",
		append(cfg.interactiveSessions(), cfg.bulkSessions()...))
	for _, s := range []struct {
		name string
		rep  serve.SimReport
	}{{"solo", solo}, {"contended", cont}} {
		fmt.Fprintf(stderr, "adaload %s: reads=%d ahead=%d hits=%d decodes=%d coalesced=%d evictions=%d makespan=%.3fs\n",
			s.name, s.rep.Reads, s.rep.Ahead, s.rep.Hits, s.rep.Decodes, s.rep.Coalesced, s.rep.Evictions, s.rep.Makespan)
		if s.rep.Reads+s.rep.Ahead != s.rep.Hits+s.rep.Decodes+s.rep.Coalesced {
			return fmt.Errorf("adaload %s: accounting broken: reads+ahead=%d != hits+decodes+coalesced=%d",
				s.name, s.rep.Reads+s.rep.Ahead, s.rep.Hits+s.rep.Decodes+s.rep.Coalesced)
		}
	}
	return nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		if err == flag.ErrHelp {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "adaload:", err)
		os.Exit(1)
	}
	if err := run(cfg, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "adaload:", err)
		os.Exit(1)
	}
}
