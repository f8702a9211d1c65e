// Command adactl drives an on-disk ADA store: ingest a (.pdb, .xtc) pair,
// inspect containers, and extract tagged subsets.
//
// The store is a host directory holding two backend trees (ssd/ and hdd/),
// standing in for the two file systems ADA dispatches between.
//
// Usage:
//
//	adactl -store /tmp/store ingest -pdb g.pdb -xtc g.xtc -name traj
//	adactl -store /tmp/store manifest -name traj
//	adactl -store /tmp/store labels -name traj
//	adactl -store /tmp/store extract -name traj -tag p -out protein.xtc
//	adactl stats -addr node1:7021
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/osfs"
	"repro/internal/plfs"
	"repro/internal/rpc"
	"repro/internal/tier"
	"repro/internal/vfs"
	"repro/internal/xtc"
)

func main() {
	store := flag.String("store", "ada-store", "store directory (holds ssd/ and hdd/ backend trees)")
	fine := flag.Bool("fine", false, "use fine-grained per-category tags")
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
	}

	cmd, args := flag.Arg(0), flag.Args()[1:]
	if cmd == "stats" {
		// stats talks to a running node's metrics endpoint; it needs no
		// local store.
		if err := cmdStats(os.Stdout, args); err != nil {
			fatal(err)
		}
		return
	}
	if cmd == "ping" {
		// ping probes a node's storage protocol directly; no local store.
		if err := cmdPing(os.Stdout, args); err != nil {
			fatal(err)
		}
		return
	}
	if cmd == "cluster" {
		// cluster drives a multi-node placement cluster; no local store.
		if err := cmdCluster(os.Stdout, args); err != nil {
			fatal(err)
		}
		return
	}
	a, containers, err := openStore(*store, *fine)
	if err != nil {
		fatal(err)
	}
	switch cmd {
	case "ingest":
		err = cmdIngest(a, args)
	case "list":
		err = cmdList(a)
	case "remove":
		err = cmdRemove(a, args)
	case "analyze":
		err = cmdAnalyze(a, args)
	case "manifest":
		err = cmdManifest(a, args)
	case "labels":
		err = cmdLabels(a, args)
	case "extract":
		err = cmdExtract(a, args)
	case "fsck":
		err = cmdFsck(a, args)
	case "scrub":
		err = cmdScrub(a, args)
	case "recover":
		err = cmdRecover(a)
	case "watch":
		err = cmdWatch(a, os.Stdout, args)
	case "tier":
		err = cmdTier(a, containers, args)
	default:
		usage()
	}
	if err != nil {
		fatal(err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: adactl [-store DIR] [-fine] COMMAND [args]

commands:
  ingest   -pdb FILE -xtc FILE -name NAME   pre-process and store a dataset
                                            (.dcd input supported; -schema FILE
                                             selects a custom categorizer)
  list                                       list ingested datasets
  remove   -name NAME                        delete a dataset
  analyze  -name NAME [-tag TAG]             per-frame RGyr/RMSD/MSD of a subset
  manifest -name NAME                        show a dataset's subsets
  labels   -name NAME                        show the label ranges
  extract  -name NAME -tag TAG -out FILE     write one subset as raw frames
  fsck     -name NAME                        verify a dataset's checksums
  scrub    [-rate BYTES/S]                   verify every dataset (one pass)
  recover                                    roll back or cut back interrupted
                                             ingests (run after a crash)
  watch    -name NAME [-interval D] [-n N]   poll a live dataset's head:
                                             frames per tag, growth rate,
                                             live/sealed state (exits when
                                             the producer seals)
  tier     [-spec SPEC] [-step]              report per-backend usage and
                                             subset placement; with -spec
                                             evaluate watermarks and (with
                                             -step) run one migration round
  stats    -addr HOST:PORT [-json]           fetch a node's runtime metrics
                                             (adanode -metrics-addr endpoint)
  ping     -addr HOST:PORT [-count N]        probe a node over the storage
           [-timeout D] [-attempts N]        protocol and report RTT/retries
  cluster  status    -addr HOST:PORT         show the placement table and
                                             per-node health/table version
           push      -table FILE             install a placement table on
                                             every node it lists
           rebalance -addr HOST:PORT         move container data to match a
                     -table FILE             new table, then install it`)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "adactl:", err)
	os.Exit(1)
}

func openStore(dir string, fine bool) (*core.ADA, *plfs.FS, error) {
	ssd, err := osfs.New(filepath.Join(dir, "ssd"))
	if err != nil {
		return nil, nil, err
	}
	hdd, err := osfs.New(filepath.Join(dir, "hdd"))
	if err != nil {
		return nil, nil, err
	}
	containers, err := plfs.New(
		plfs.Backend{Name: "ssd", FS: ssd, Mount: "/"},
		plfs.Backend{Name: "hdd", FS: hdd, Mount: "/"},
	)
	if err != nil {
		return nil, nil, err
	}
	opts := core.Options{}
	if fine {
		opts.Granularity = core.Fine
	}
	return core.New(containers, nil, opts), containers, nil
}

func cmdIngest(a *core.ADA, args []string) error {
	fs := flag.NewFlagSet("ingest", flag.ExitOnError)
	pdbPath := fs.String("pdb", "", "structure file")
	xtcPath := fs.String("xtc", "", "compressed trajectory")
	name := fs.String("name", "", "dataset name")
	schemaPath := fs.String("schema", "", "user-defined categorization schema (JSON)")
	fs.Parse(args)
	if *pdbPath == "" || *xtcPath == "" || *name == "" {
		return fmt.Errorf("ingest needs -pdb, -xtc and -name")
	}
	if *schemaPath != "" {
		data, err := os.ReadFile(*schemaPath)
		if err != nil {
			return err
		}
		schema, err := core.ParseSchema(data)
		if err != nil {
			return err
		}
		a = a.WithSchema(schema)
	}
	pdbBytes, err := os.ReadFile(*pdbPath)
	if err != nil {
		return err
	}
	xf, err := os.Open(*xtcPath)
	if err != nil {
		return err
	}
	defer xf.Close()
	var tr core.TrajectoryReader
	switch strings.ToLower(filepath.Ext(*xtcPath)) {
	case ".dcd":
		if tr, err = core.NewDCDTrajectory(xf); err != nil {
			return err
		}
	case ".trr":
		tr = core.NewTRRTrajectory(xf)
	default:
		tr = core.NewXTCTrajectory(xf)
	}
	rep, err := a.IngestTrajectory("/"+*name, pdbBytes, tr)
	if err != nil {
		return err
	}
	fmt.Printf("ingested %s: %d frames, %d atoms\n", *name, rep.Frames, rep.NAtoms)
	fmt.Printf("  compressed in : %d bytes\n", rep.Compressed)
	fmt.Printf("  raw           : %d bytes\n", rep.Raw)
	for tag, n := range rep.Subsets {
		fmt.Printf("  subset %-8s: %d bytes\n", tag, n)
	}
	return nil
}

// cmdStats fetches and prints the metrics exposition of a running adanode
// (its -metrics-addr endpoint): text by default, the JSON snapshot with
// -json.
func cmdStats(out io.Writer, args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	addr := fs.String("addr", "", "metrics address (host:port or full URL)")
	jsonOut := fs.Bool("json", false, "fetch the JSON snapshot instead of text")
	fs.Parse(args)
	if *addr == "" {
		return fmt.Errorf("stats needs -addr")
	}
	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	url := strings.TrimSuffix(base, "/") + "/metrics"
	if *jsonOut {
		url += ".json"
	}
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stats: %s returned %s", url, resp.Status)
	}
	_, err = io.Copy(out, resp.Body)
	return err
}

// cmdPing dials a storage node and issues stat probes under an explicit
// retry policy, reporting per-probe round-trip time plus the retry and
// suppression counters the policy recorded. A node that is down surfaces
// as ErrBackendDown after the bounded retry schedule, never as a hang.
func cmdPing(out io.Writer, args []string) error {
	fs := flag.NewFlagSet("ping", flag.ExitOnError)
	addr := fs.String("addr", "", "storage node address (host:port)")
	count := fs.Int("count", 3, "number of probes")
	timeout := fs.Duration("timeout", 2*time.Second, "per-attempt call deadline")
	attempts := fs.Int("attempts", 4, "max attempts per probe")
	fs.Parse(args)
	if *addr == "" {
		return fmt.Errorf("ping needs -addr")
	}
	pol := rpc.DefaultRetryPolicy()
	pol.CallTimeout = *timeout
	pol.MaxAttempts = *attempts
	c, err := rpc.DialWith(*addr, nil, pol)
	if err != nil {
		return err
	}
	defer c.Close()
	reg := metrics.NewRegistry()
	c.SetMetrics(reg)
	failed := 0
	for i := 1; i <= *count; i++ {
		start := time.Now()
		_, err := c.Stat("/")
		rtt := float64(time.Since(start).Microseconds()) / 1000
		if err != nil {
			failed++
			fmt.Fprintf(out, "probe %d/%d: %.3fms  %v\n", i, *count, rtt, err)
			continue
		}
		fmt.Fprintf(out, "probe %d/%d: %.3fms  ok\n", i, *count, rtt)
	}
	s := reg.Snapshot()
	fmt.Fprintf(out, "%d probes to %s: %d ok, %d retries, %d suppressed\n",
		*count, *addr, *count-failed,
		s.Counters["rpc.client.retries"], s.Counters["rpc.client.retries_suppressed"])
	if failed == *count {
		return fmt.Errorf("ping: node %s: %w", *addr, vfs.ErrBackendDown)
	}
	return nil
}

func cmdList(a *core.ADA) error {
	names, err := a.Datasets()
	if err != nil {
		return err
	}
	for _, n := range names {
		m, err := a.Manifest(n)
		if err != nil {
			fmt.Printf("%-30s (unreadable: %v)\n", n, err)
			continue
		}
		fmt.Printf("%-30s %8d frames  %8d atoms  %d tags\n",
			n, m.Frames, m.NAtoms, len(m.Subsets))
	}
	return nil
}

func cmdRemove(a *core.ADA, args []string) error {
	fs := flag.NewFlagSet("remove", flag.ExitOnError)
	name := fs.String("name", "", "dataset name")
	fs.Parse(args)
	if *name == "" {
		return fmt.Errorf("remove needs -name")
	}
	if err := a.Remove("/" + *name); err != nil {
		return err
	}
	fmt.Printf("removed %s\n", *name)
	return nil
}

func cmdAnalyze(a *core.ADA, args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	name := fs.String("name", "", "dataset name")
	tag := fs.String("tag", core.TagProtein, "subset tag")
	fs.Parse(args)
	if *name == "" {
		return fmt.Errorf("analyze needs -name")
	}
	// Prefer in-situ statistics computed at ingest (IngestWithStats); fall
	// back to recomputing from the stored subset frames.
	if st, err := a.Stats("/"+*name, *tag); err == nil {
		fmt.Printf("subset %q: %d frames (in-situ stats from ingest)\n", *tag, st.Frames)
		fmt.Printf("%6s %10s %10s %10s\n", "frame", "rgyr(nm)", "rmsd(nm)", "msd(nm2)")
		for i := 0; i < st.Frames; i++ {
			fmt.Printf("%6d %10.4f %10.4f %10.4f\n", i, st.RGyr[i], st.RMSD[i], st.MSD[i])
		}
		fmt.Printf("mean rgyr %.4f nm\n", st.MeanRG)
		return nil
	}
	sr, err := a.OpenSubset("/"+*name, *tag)
	if err != nil {
		return err
	}
	defer sr.Close()
	var ts analysis.TrajectoryStats
	for {
		f, err := sr.ReadFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if err := ts.Add(f); err != nil {
			return err
		}
	}
	fmt.Printf("subset %q: %d frames, %d atoms\n", *tag, ts.Frames, sr.Ranges.Count())
	fmt.Printf("%6s %10s %10s %10s\n", "frame", "rgyr(nm)", "rmsd(nm)", "msd(nm2)")
	for i := 0; i < ts.Frames; i++ {
		fmt.Printf("%6d %10.4f %10.4f %10.4f\n", i, ts.RGyr[i], ts.RMSD[i], ts.MSD[i])
	}
	fmt.Printf("mean rgyr %.4f nm, mean aligned rmsd %.4f nm\n",
		analysis.Mean(ts.RGyr), analysis.Mean(ts.RMSD))
	return nil
}

func cmdManifest(a *core.ADA, args []string) error {
	fs := flag.NewFlagSet("manifest", flag.ExitOnError)
	name := fs.String("name", "", "dataset name")
	fs.Parse(args)
	if *name == "" {
		return fmt.Errorf("manifest needs -name")
	}
	m, err := a.Manifest("/" + *name)
	if err != nil {
		return err
	}
	fmt.Printf("dataset %s: %d frames, %d atoms, granularity %s\n",
		m.Logical, m.Frames, m.NAtoms, m.Granularity)
	for _, tag := range m.Tags() {
		s := m.Subsets[tag]
		fmt.Printf("  tag %-8s -> backend %-4s  %10d bytes  %7d atoms  ranges %s\n",
			tag, s.Backend, s.Bytes, s.NAtoms, s.Ranges)
	}
	return nil
}

func cmdLabels(a *core.ADA, args []string) error {
	fs := flag.NewFlagSet("labels", flag.ExitOnError)
	name := fs.String("name", "", "dataset name")
	fs.Parse(args)
	if *name == "" {
		return fmt.Errorf("labels needs -name")
	}
	data, err := a.Labels("/" + *name)
	if err != nil {
		return err
	}
	fmt.Printf("%d atoms\n", data.NAtoms)
	for c := 0; c < len(data.ByCategory); c++ {
		l := data.ByCategory[c]
		if l.Count() == 0 {
			continue
		}
		fmt.Printf("  %-8s %8d atoms in %d ranges: %s\n",
			categoryName(c), l.Count(), l.NumRanges(), l)
	}
	return nil
}

// cmdFsck verifies one dataset: every subset against its whole-stream and
// per-frame CRC32C, every metadata dropping against the manifest's
// integrity map.
func cmdFsck(a *core.ADA, args []string) error {
	fs := flag.NewFlagSet("fsck", flag.ExitOnError)
	name := fs.String("name", "", "dataset name")
	fs.Parse(args)
	if *name == "" {
		return fmt.Errorf("fsck needs -name")
	}
	res, err := a.Fsck("/" + *name)
	if err != nil {
		return err
	}
	for _, v := range res.Verdicts {
		line := fmt.Sprintf("  %-11s %-24s backend %s", v.Status, v.Name, v.Backend)
		if v.Detail != "" {
			line += "  (" + v.Detail + ")"
		}
		fmt.Println(line)
	}
	if !res.OK() {
		return fmt.Errorf("fsck %s: %d corrupt, %d missing, committed=%v",
			*name, res.Corrupt, res.Missing, res.Committed)
	}
	fmt.Printf("fsck %s: clean (%d droppings)\n", *name, len(res.Verdicts))
	return nil
}

// cmdScrub runs one synchronous scrub pass over every dataset.
func cmdScrub(a *core.ADA, args []string) error {
	fs := flag.NewFlagSet("scrub", flag.ExitOnError)
	rate := fs.Int64("rate", 0, "payload bytes verified per second (0 = unthrottled)")
	fs.Parse(args)
	rep, err := a.NewScrubber(*rate).Run()
	if err != nil {
		return err
	}
	fmt.Printf("scrubbed %d datasets, %d droppings, %d payload bytes in %v\n",
		rep.Datasets, rep.Droppings, rep.Bytes, rep.Elapsed.Round(time.Millisecond))
	for _, v := range rep.Corrupt {
		fmt.Printf("  %-11s %-24s backend %s  (%s)\n", v.Status, v.Name, v.Backend, v.Detail)
	}
	if len(rep.Corrupt) > 0 {
		return fmt.Errorf("scrub: %d droppings failed verification", len(rep.Corrupt))
	}
	return nil
}

// cmdRecover classifies every container and repairs interrupted ingests.
func cmdRecover(a *core.ADA) error {
	actions, err := a.Recover()
	if err != nil {
		return err
	}
	if len(actions) == 0 {
		fmt.Println("no datasets")
		return nil
	}
	for name, act := range actions {
		fmt.Printf("  %-30s %s\n", name, act)
	}
	return nil
}

// cmdWatch polls a live dataset's head and prints its growth: version,
// frame count (with the delta and rate since the last poll), per-tag bytes,
// and the live/sealed state. It exits when the producer seals (or after -n
// polls when -n > 0), so it doubles as a wait-for-seal in scripts.
func cmdWatch(a *core.ADA, out io.Writer, args []string) error {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	name := fs.String("name", "", "dataset name")
	interval := fs.Duration("interval", 500*time.Millisecond, "poll interval")
	n := fs.Int("n", 0, "number of polls (0 = until sealed)")
	fs.Parse(args)
	if *name == "" {
		return fmt.Errorf("watch needs -name")
	}
	logical := "/" + *name
	lastFrames := -1
	lastAt := time.Now()
	for poll := 1; ; poll++ {
		h, err := a.LiveHead(logical)
		if err != nil {
			return err
		}
		now := time.Now()
		state, version := "live", fmt.Sprintf("v%d", h.Version)
		if h.Sealed {
			state, version = "sealed", "-" // version ordering ends at the seal
		}
		line := fmt.Sprintf("%-6s %-5s %8d frames", state, version, h.Frames)
		if lastFrames >= 0 {
			delta := h.Frames - lastFrames
			rate := float64(delta) / now.Sub(lastAt).Seconds()
			line += fmt.Sprintf("  (+%d, %.1f fps)", delta, rate)
		}
		for _, tag := range h.Tags() {
			line += fmt.Sprintf("  %s=%dB", tag, h.Subsets[tag].Bytes)
		}
		fmt.Fprintln(out, line)
		if h.Sealed {
			return nil
		}
		if *n > 0 && poll >= *n {
			return nil
		}
		lastFrames, lastAt = h.Frames, now
		time.Sleep(*interval)
	}
}

// cmdTier reports the store's tiering state: per-backend byte usage and
// every subset's placement. With -spec it is a placement report against the
// budget a node would enforce, and -step runs one migration planning round —
// a manual rebalance. A one-shot process serves no reads, so it has no heat:
// a -step demotion ranks by size alone. Heat-driven migration is adanode
// -tier-spec's, whose migrator learns from the bytes the node serves.
func cmdTier(a *core.ADA, containers *plfs.FS, args []string) error {
	fs := flag.NewFlagSet("tier", flag.ExitOnError)
	spec := fs.String("spec", "", `tier spec, e.g. "fast=ssd,slow=hdd,cap=64MiB"`)
	step := fs.Bool("step", false, "run one migration planning round before reporting (needs -spec)")
	fs.Parse(args)
	if *spec == "" {
		if *step {
			return fmt.Errorf("tier -step needs -spec")
		}
		return tierListing(a, containers)
	}
	cfg, err := tier.ParseSpec(*spec)
	if err != nil {
		return err
	}
	mig, err := tier.NewMigrator(a, containers, tier.NewTracker(tier.WallClock(), cfg.HalfLife), cfg)
	if err != nil {
		return err
	}
	if *step {
		rep, err := mig.Step()
		if err != nil {
			return err
		}
		for _, mv := range rep.Demotions {
			fmt.Printf("demoted  %s tag %-8s %s -> %s  %d bytes\n", mv.Logical, mv.Tag, mv.From, mv.To, mv.Bytes)
		}
		for _, mv := range rep.Promotions {
			fmt.Printf("promoted %s tag %-8s %s -> %s  %d bytes\n", mv.Logical, mv.Tag, mv.From, mv.To, mv.Bytes)
		}
		fmt.Printf("moved %d bytes\n", rep.BytesMoved)
	}
	r, err := mig.Report()
	if err != nil {
		return err
	}
	high := int64(cfg.HighWater * float64(cfg.CapacityBytes))
	low := int64(cfg.LowWater * float64(cfg.CapacityBytes))
	fmt.Printf("fast backend %s: %d / %d bytes (high %d, low %d)\n",
		r.Fast, r.FastUsage, r.Capacity, high, low)
	for _, name := range containers.Backends() {
		fmt.Printf("  backend %-4s %12d bytes\n", name, r.Usage[name])
	}
	for _, s := range r.Subsets {
		fmt.Printf("  %-24s tag %-8s backend %-4s %10d bytes  heat %.0f  pin %s\n",
			s.Logical, s.Tag, s.Backend, s.Bytes, s.Heat, s.Pin)
	}
	return nil
}

// tierListing prints placement and usage without a spec: what is where.
func tierListing(a *core.ADA, containers *plfs.FS) error {
	for _, name := range containers.Backends() {
		n, err := containers.UsageOf(name)
		if err != nil {
			return err
		}
		fmt.Printf("backend %-4s %12d bytes\n", name, n)
	}
	datasets, err := a.Datasets()
	if err != nil {
		return err
	}
	for _, logical := range datasets {
		idx, err := containers.Index(logical)
		if err != nil {
			return err
		}
		for _, d := range idx {
			if tag, ok := core.SubsetTag(d.Name); ok {
				fmt.Printf("  %-24s tag %-8s backend %-4s %10d bytes\n", logical, tag, d.Backend, d.Size)
			}
		}
	}
	return nil
}

func categoryName(c int) string {
	names := []string{"protein", "water", "lipid", "ion", "ligand", "other"}
	if c < len(names) {
		return names[c]
	}
	return fmt.Sprintf("cat%d", c)
}

func cmdExtract(a *core.ADA, args []string) error {
	fs := flag.NewFlagSet("extract", flag.ExitOnError)
	name := fs.String("name", "", "dataset name")
	tag := fs.String("tag", core.TagProtein, "subset tag")
	out := fs.String("out", "", "output file (raw frames)")
	fs.Parse(args)
	if *name == "" || *out == "" {
		return fmt.Errorf("extract needs -name and -out")
	}
	sr, err := a.OpenSubset("/"+*name, *tag)
	if err != nil {
		return err
	}
	defer sr.Close()
	of, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer of.Close()
	w := xtc.NewRawWriter(of)
	frames := 0
	for {
		f, err := sr.ReadFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if err := w.WriteFrame(f); err != nil {
			return err
		}
		frames++
	}
	fmt.Printf("extracted %d frames (%d atoms each, tag %s) to %s\n",
		frames, sr.Ranges.Count(), *tag, *out)
	return nil
}
