// Command adanode runs one storage node: it exposes a host directory over
// the TCP storage protocol so a remote ADA instance can use it as a
// container-store backend.
//
// Usage:
//
//	adanode -listen :7020 -dir /data/ssd-node -metrics-addr :7021
//
// Multi-node clusters share a placement table: the seed node loads it from
// disk (-cluster-table table.json) and every other node fetches it from a
// running peer (-join seed:7020). Any node then serves the table to
// clients and late joiners over the storage protocol.
//
// With -metrics-addr set, the node serves its runtime metrics over HTTP:
// GET /metrics is the line-oriented text form, GET /metrics.json the JSON
// snapshot. After an ingest the RPC and FS counters (rpc.server.*,
// fs.node.*) show exactly what the storage side paid.
//
// On the client side, connect the node as a backend:
//
//	fs, _ := ada.DialStorageNode("node1:7020")
//	store, _ := ada.NewContainerStore(ada.Backend{Name: "ssd", FS: fs, Mount: "/"})
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/faultfs"
	"repro/internal/metrics"
	"repro/internal/osfs"
	"repro/internal/placement"
	"repro/internal/rpc"
	"repro/internal/tier"
	"repro/internal/vfs"
)

// config is the parsed command line.
type config struct {
	listen      string
	dir         string
	quiet       bool
	metricsAddr string
	faultSpec   string
	scrubRate   int64
	tierSpec    string
	tenantRate  float64
	tenantBurst float64
	tableFile   string
	join        string
	watchPoll   time.Duration
}

// parseFlags parses args (without the program name). It returns
// flag.ErrHelp or a usage error without exiting, so main stays testable.
func parseFlags(args []string, stderr io.Writer) (*config, error) {
	cfg := &config{}
	fs := flag.NewFlagSet("adanode", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.listen, "listen", "127.0.0.1:7020", "TCP listen address")
	fs.StringVar(&cfg.dir, "dir", "adanode-data", "directory to serve")
	fs.BoolVar(&cfg.quiet, "quiet", false, "disable request logging")
	fs.StringVar(&cfg.metricsAddr, "metrics-addr", "",
		"HTTP address for /metrics and /metrics.json (empty disables)")
	fs.StringVar(&cfg.faultSpec, "fault-spec", "",
		`inject deterministic transport faults on accepted connections, for
resilience testing (e.g. "seed=42; drop:conn.read:every=3"; see DESIGN.md)`)
	fs.Int64Var(&cfg.scrubRate, "scrub-rate", 0,
		"background checksum scrub rate in bytes/second over the served tree (0 disables)")
	fs.StringVar(&cfg.tierSpec, "tier-spec", "",
		`run heat-driven tiering over the served store, treating -dir as a
two-tier container store (e.g. "fast=ssd,slow=hdd,cap=64MiB"; see DESIGN.md)`)
	fs.Float64Var(&cfg.tenantRate, "tenant-rate", 0,
		"per-tenant read quota in bytes/second for connections that identify"+
			" a tenant (0 disables metering)")
	fs.Float64Var(&cfg.tenantBurst, "tenant-burst", 8<<20,
		"per-tenant read burst capacity in bytes (used with -tenant-rate)")
	fs.StringVar(&cfg.tableFile, "cluster-table", "",
		"placement table JSON to load, validate, and serve to cluster peers")
	fs.StringVar(&cfg.join, "join", "",
		"address of a cluster peer to fetch the placement table from at startup")
	fs.DurationVar(&cfg.watchPoll, "watch-poll", 0,
		"re-read cadence for parked watch long-polls (live-head tailing; 0 = 2ms default)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() != 0 {
		fs.Usage()
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if cfg.tenantRate < 0 || cfg.tenantBurst < 0 {
		return nil, fmt.Errorf("-tenant-rate and -tenant-burst must be non-negative")
	}
	if cfg.watchPoll < 0 {
		return nil, fmt.Errorf("-watch-poll must be non-negative")
	}
	if cfg.tableFile != "" && cfg.join != "" {
		return nil, fmt.Errorf("-cluster-table and -join are mutually exclusive")
	}
	return cfg, nil
}

// loadClusterTable resolves the node's placement table: from a local file
// (-cluster-table, the seed node) or from a running peer (-join). Either
// way the table is validated before the node agrees to serve it.
func loadClusterTable(cfg *config) ([]byte, uint64, error) {
	switch {
	case cfg.tableFile != "":
		data, err := os.ReadFile(cfg.tableFile)
		if err != nil {
			return nil, 0, fmt.Errorf("-cluster-table: %w", err)
		}
		tbl, err := placement.Unmarshal(data)
		if err != nil {
			return nil, 0, fmt.Errorf("-cluster-table %s: %w", cfg.tableFile, err)
		}
		return data, tbl.Version, nil
	case cfg.join != "":
		cli, err := rpc.Dial(cfg.join)
		if err != nil {
			return nil, 0, fmt.Errorf("-join %s: %w", cfg.join, err)
		}
		defer cli.Close()
		data, version, err := cli.FetchClusterTable()
		if err != nil {
			return nil, 0, fmt.Errorf("-join %s: %w", cfg.join, err)
		}
		if data == nil {
			return nil, 0, fmt.Errorf("-join %s: peer serves no cluster table", cfg.join)
		}
		if _, err := placement.Unmarshal(data); err != nil {
			return nil, 0, fmt.Errorf("-join %s: peer table: %w", cfg.join, err)
		}
		return data, version, nil
	}
	return nil, 0, nil
}

// metricsMux serves the registry over HTTP.
func metricsMux(reg *metrics.Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		reg.WriteText(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		reg.WriteJSON(w)
	})
	return mux
}

func run(cfg *config, stdout io.Writer) error {
	base, err := osfs.New(cfg.dir)
	if err != nil {
		return err
	}
	// Every byte and op the node serves is accounted under fs.node.*.
	var fsys vfs.FS = vfs.Instrument(base, metrics.Default, "fs.node")
	ln, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		return err
	}
	if cfg.faultSpec != "" {
		in, err := faultfs.Parse(cfg.faultSpec)
		if err != nil {
			return fmt.Errorf("-fault-spec: %w", err)
		}
		in.SetMetrics(metrics.Default)
		ln = faultfs.WrapListener(ln, in)
		fmt.Fprintf(stdout, "adanode injecting faults: %s\n", in)
	}
	var logger *log.Logger
	if !cfg.quiet {
		logger = log.New(os.Stderr, "adanode: ", log.LstdFlags)
	}
	if cfg.metricsAddr != "" {
		mln, err := net.Listen("tcp", cfg.metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		fmt.Fprintf(stdout, "adanode metrics on http://%s/metrics\n", mln.Addr())
		go http.Serve(mln, metricsMux(metrics.Default))
	}
	var mig *tier.Migrator
	if cfg.tierSpec != "" {
		m, trk, err := setupTiering(base, cfg.tierSpec)
		if err != nil {
			return fmt.Errorf("-tier-spec: %w", err)
		}
		// Served subset reads feed the heat tracker; the migrator reads and
		// moves droppings through the uninstrumented FS, like the scrubber,
		// so rebalancing I/O stays out of the fs.node.* serving counters.
		fsys = tier.HeatFS(fsys, trk)
		m.Run()
		mig = m
		c := m.Config()
		fmt.Fprintf(stdout, "adanode tiering %s->%s: cap=%d bytes, watermarks %.2f/%.2f, every %v\n",
			c.Fast, c.Slow, c.CapacityBytes, c.HighWater, c.LowWater, c.Interval)
	}
	if cfg.scrubRate > 0 {
		// The scrubber reads through the uninstrumented FS so background
		// verification does not pollute the fs.node.* serving counters.
		sc := newNodeScrubber(base, cfg.scrubRate, metrics.Default)
		go sc.loop(10 * time.Second)
		fmt.Fprintf(stdout, "adanode scrubbing at %d B/s\n", cfg.scrubRate)
	}
	fmt.Fprintf(stdout, "adanode serving %s on %s\n", base.Root(), ln.Addr())
	srv := rpc.NewServer(fsys, logger)
	if data, version, err := loadClusterTable(cfg); err != nil {
		return err
	} else if data != nil {
		if err := srv.SetClusterTable(data, version); err != nil {
			return err
		}
		tbl, _ := placement.Unmarshal(data)
		fmt.Fprintf(stdout, "adanode cluster table v%d: %d nodes, R=%d\n",
			version, len(tbl.Nodes), tbl.Replication)
	}
	if cfg.tenantRate > 0 {
		srv.SetTenantQuota(cfg.tenantRate, cfg.tenantBurst)
		fmt.Fprintf(stdout, "adanode tenant read quota: %.0f B/s, burst %.0f B\n",
			cfg.tenantRate, cfg.tenantBurst)
	}
	if cfg.watchPoll > 0 {
		srv.SetWatchPoll(cfg.watchPoll)
		fmt.Fprintf(stdout, "adanode watch poll: %v\n", cfg.watchPoll)
	}
	// SIGINT/SIGTERM drain gracefully: stop accepting, finish in-flight
	// requests, then exit cleanly.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	go func() {
		s := <-sigs
		fmt.Fprintf(stdout, "adanode: %v: draining in-flight requests\n", s)
		if mig != nil {
			// Let an in-flight migration round finish its atomic publish
			// before the server stops; a kill mid-copy is still safe (the
			// next start's Recover sweeps the staged half), but a drain
			// leaves nothing to repair.
			mig.Stop()
			fmt.Fprintln(stdout, "adanode: tier migrator drained")
		}
		srv.Close()
	}()
	if err := srv.Serve(ln); !errors.Is(err, rpc.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(stdout, "adanode: shut down cleanly")
	return nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		if err == flag.ErrHelp {
			os.Exit(2)
		}
		fatal(err)
	}
	if err := run(cfg, os.Stdout); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "adanode:", err)
	os.Exit(1)
}
