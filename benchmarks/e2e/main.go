// Command e2e is the repository's end-to-end benchmark. One process stands
// up the real path — three storage nodes on loopback TCP (the server
// cmd/adanode builds), connection pools, a 3-node R=2 placement cluster,
// plfs, core, the serve fabric and a vmd session — generates its dataset
// from a seed, runs a closed-loop workload for a fixed time, checks every
// output, and prints every metric by name with its unit. The last line of
// standard output is the result as one JSON object.
//
//	go run ./benchmarks/e2e --workload playback_cold --seed 42 --seconds 20 --trace 0
//	go run ./benchmarks/e2e --workload all --runs 5 --out A.json
//	go run ./benchmarks/e2e compare A.json B.json
//
// See benchmarks/README.md for the workloads, the metrics and how they
// interact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	cfg := defaultConfig()
	fs := flag.NewFlagSet("e2e", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload name, or all")
	trace := fs.Int("trace", 0, "1: split the window with a traced pass and report the per-layer metrics")
	runs := fs.Int("runs", 1, "repeat each workload this many times, seed+0 .. seed+runs-1")
	out := fs.String("out", "", "write every run's result to this file as a set, for compare")
	spec := fs.Bool("spec", false, "print BENCHMARK.json as this program defines it and exit")
	fs.Int64Var(&cfg.seed, "seed", cfg.seed, "dataset and pattern seed")
	fs.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "timed window per run")
	fs.StringVar(&cfg.dir, "dir", "", "store root (default: <out-dir>/store; the node directories are made under it)")
	fs.StringVar(&cfg.outDir, "out-dir", cfg.outDir, "where traces and results are written")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *spec {
		return printSpec(stdout, int(cfg.seconds))
	}
	if fs.NArg() != 0 || *trace < 0 || *trace > 1 || *runs < 1 || cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "e2e: bad arguments; see -h")
		return 2
	}
	if cfg.dir == "" {
		cfg.dir = filepath.Join(cfg.outDir, "store")
	}
	mixes := workloads
	if *workload != "all" {
		m, ok := workloadByName(*workload)
		if !ok {
			fmt.Fprintf(stderr, "e2e: unknown workload %q\n", *workload)
			return 2
		}
		mixes = []mix{m}
	}

	var set resultSet
	code := 0
	for r := 0; r < *runs; r++ {
		for _, m := range mixes {
			c := cfg
			c.seed = cfg.seed + int64(r)
			res, err := runWorkload(c, m, *trace == 1)
			if err != nil {
				fmt.Fprintf(stderr, "e2e: %s: %v\n", m.name, err)
				return 1
			}
			if !res.Correct {
				code = 1
			}
			set.Runs = append(set.Runs, res)
			if err := writeJSON(filepath.Join(cfg.outDir, m.name+".result.json"), res); err != nil {
				fmt.Fprintf(stderr, "e2e: %v\n", err)
				return 1
			}
			res.print(stdout)
		}
	}
	if *out != "" {
		if err := writeJSON(*out, &set); err != nil {
			fmt.Fprintf(stderr, "e2e: %v\n", err)
			return 1
		}
	}
	return code
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// print writes the human-readable report and, last, the one-line JSON
// result the driver reads.
func (r *result) print(w io.Writer) {
	h := r.Host
	fmt.Fprintf(w, "# %s seed=%d trace=%v rounds=%d\n", r.Workload, r.Seed, r.Trace, r.Rounds)
	fmt.Fprintf(w, "# host: cpus=%d GOMAXPROCS=%d %s kernel=%s commit=%s\n", h.CPUs, h.GOMAXPROCS, h.Go, h.Kernel, h.Commit)
	fmt.Fprintf(w, "# store: %s (%s)  pool=%d  cache cold=%d scrub=%d  dataset: scale=%d frames=%d batch=%d\n",
		h.StoreDir, h.StoreFS, h.PoolSize, h.ColdCacheBytes, h.ScrubCacheBytes, h.Scale, h.Frames, h.BatchFrames)
	fmt.Fprintf(w, "# round: ingests=%d live=%v sweeps=%d colds=%d loadP=%d loadAll=%d  window=%gs setups=%d\n",
		h.Mix.Ingests, h.Mix.Live, h.Mix.Sweeps, h.Mix.Colds, h.Mix.LoadP, h.Mix.LoadAll, h.Seconds, h.Setups)
	fmt.Fprintf(w, "# timing: generate=%.2fs  cluster start + pre-ingest=%.2fs  rounds=%.2fs\n", r.GenS, r.StartS, r.RoundS)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%-36s %16.6g %s\n", name, r.Metrics[name].Value, r.Metrics[name].Unit)
	}
	if t := r.layers; t != nil {
		fmt.Fprintf(w, "# layer self time over the traced pass, seconds by stage (%d spans without a parent):\n", t.orphans)
		fmt.Fprintf(w, "#   %-10s %9s %9s %9s %9s %9s %9s\n", "", "write", "play", "tail", "load", "other", "all")
		for _, layer := range layerOrder {
			fmt.Fprintf(w, "#   %-10s", layer)
			for _, in := range t.selfIn {
				fmt.Fprintf(w, " %9.3f", in[layer])
			}
			fmt.Fprintf(w, " %9.3f %5.1f%%\n", t.self[layer], 100*ratio(t.self[layer], t.allSelfS))
		}
		fmt.Fprintf(w, "#   %-10s %59.3f  harness-timed calls: %.3f s\n", "sum", t.allSelfS, t.rootsS)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "# FAILED: %s\n", e)
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	fmt.Fprintf(w, "%s\n", line)
}

// printSpec prints BENCHMARK.json from the tables this program reports
// from, so the two cannot drift apart; the smoke test compares them.
func printSpec(w io.Writer, seconds int) int {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	spec := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"` // no bound: omitted when 0
	}{Command: []string{"bash", "benchmarks/run.sh"}, Paths: []string{"benchmarks"}, RunSeconds: seconds,
		EndToEnd: endToEnd, PerLayer: perLayer}
	for _, m := range workloads {
		spec.Workloads = append(spec.Workloads, wl{m.name, m.why})
	}
	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return 1
	}
	fmt.Fprintf(w, "%s\n", data)
	return 0
}

// ---- host and configuration ----

// hostInfo is where and how a result was measured. compare refuses to set
// results side by side when cpus or GOMAXPROCS differ.
type hostInfo struct {
	CPUs            int     `json:"cpus"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	Go              string  `json:"go"`
	Kernel          string  `json:"kernel"`
	Commit          string  `json:"commit"`
	StoreDir        string  `json:"store_dir"`
	StoreFS         string  `json:"store_fs"`
	Nodes           int     `json:"nodes"`
	Replication     int     `json:"replication"`
	PoolSize        int     `json:"pool_size"`
	ColdCacheBytes  int64   `json:"cold_cache_bytes"`
	ScrubCacheBytes int64   `json:"scrub_cache_bytes"`
	Scale           int     `json:"scale"`
	Frames          int     `json:"frames"`
	BatchFrames     int     `json:"batch_frames"`
	Seconds         float64 `json:"seconds"`
	Setups          int     `json:"setups"`
	Mix             mixInfo `json:"round"`
}

type mixInfo struct {
	Ingests int  `json:"ingests"`
	Live    bool `json:"live"`
	Sweeps  int  `json:"sweeps"`
	Colds   int  `json:"colds"`
	LoadP   int  `json:"load_p"`
	LoadAll int  `json:"load_all"`
}

func hostOf(cfg config, m mix, storeDir string) hostInfo {
	h := hostInfo{
		CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Kernel: "unknown", Commit: "unknown", StoreDir: storeDir, StoreFS: fsType(storeDir),
		Nodes: nodeCount, Replication: replication, PoolSize: poolSize,
		ColdCacheBytes: cfg.coldCache, ScrubCacheBytes: cfg.scrubCache,
		Scale: cfg.scale, Frames: cfg.frames, BatchFrames: cfg.batchFrames,
		Seconds: cfg.seconds, Setups: cfg.setups,
		Mix: mixInfo{m.ingests, m.live, m.sweeps, m.colds, m.loadP, m.loadAll},
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	// The driver's checkout is not a git repository; the commit is then
	// unknown, and git's complaint is not worth showing.
	if b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(b))
	}
	return h
}

// fsType names the file system dir is on, for the few the store is
// likely to sit on.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
