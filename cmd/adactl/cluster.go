package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/placement"
	"repro/internal/rpc"
	"repro/internal/vfs"
)

// cmdCluster drives a multi-node placement cluster through any member
// node: inspect the shared table and node health, install a new table, or
// run a rebalance that moves container data to match one.
func cmdCluster(out io.Writer, args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("cluster needs a subcommand: status, push, or rebalance")
	}
	switch sub, rest := args[0], args[1:]; sub {
	case "status":
		return cmdClusterStatus(out, rest)
	case "push":
		return cmdClusterPush(out, rest)
	case "rebalance":
		return cmdClusterRebalance(out, rest)
	default:
		return fmt.Errorf("cluster: unknown subcommand %q (want status, push, or rebalance)", sub)
	}
}

// clusterPolicy bounds every control-plane call so a dead node answers
// "down" on a deadline instead of hanging the CLI.
func clusterPolicy(timeout time.Duration) rpc.RetryPolicy {
	pol := rpc.DefaultRetryPolicy()
	pol.CallTimeout = timeout
	return pol
}

// fetchTable pulls the placement table from one node and validates it.
func fetchTable(addr string, timeout time.Duration) (*placement.Table, []byte, error) {
	c, err := rpc.DialWith(addr, nil, clusterPolicy(timeout))
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: dial %s: %w", addr, err)
	}
	defer c.Close()
	data, _, err := c.FetchClusterTable()
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: fetch table from %s: %w", addr, err)
	}
	if data == nil {
		return nil, nil, fmt.Errorf("cluster: node %s serves no placement table", addr)
	}
	tbl, err := placement.Unmarshal(data)
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: table from %s: %w", addr, err)
	}
	return tbl, data, nil
}

// nodeAddrs maps every table node to its address, failing on blanks: the
// control plane cannot reach a node the table does not locate.
func nodeAddrs(tbl *placement.Table) (map[string]string, error) {
	out := make(map[string]string, len(tbl.Nodes))
	for _, n := range tbl.Nodes {
		if n.Addr == "" {
			return nil, fmt.Errorf("cluster: table v%d: node %q has no address", tbl.Version, n.Name)
		}
		out[n.Name] = n.Addr
	}
	return out, nil
}

func cmdClusterStatus(out io.Writer, args []string) error {
	fs := flag.NewFlagSet("cluster status", flag.ExitOnError)
	addr := fs.String("addr", "", "any cluster node (host:port)")
	timeout := fs.Duration("timeout", 2*time.Second, "per-attempt call deadline")
	fs.Parse(args)
	if *addr == "" {
		return fmt.Errorf("cluster status needs -addr")
	}
	tbl, _, err := fetchTable(*addr, *timeout)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "placement table v%d: %d nodes, replication %d, %d pinned dirs\n",
		tbl.Version, len(tbl.Nodes), tbl.Replication, len(tbl.Pins))
	down := 0
	for _, n := range tbl.Nodes {
		if n.Addr == "" {
			fmt.Fprintf(out, "  %-12s ?            no address in table\n", n.Name)
			down++
			continue
		}
		status, detail := probeNode(n.Addr, *timeout)
		if !status {
			down++
		}
		fmt.Fprintf(out, "  %-12s %-21s %s\n", n.Name, n.Addr, detail)
	}
	if down > 0 {
		return fmt.Errorf("cluster: %d of %d nodes unreachable", down, len(tbl.Nodes))
	}
	return nil
}

// probeNode stats a node's root and reports its health plus the table
// version it serves, so a node running a stale table is visible.
func probeNode(addr string, timeout time.Duration) (bool, string) {
	c, err := rpc.DialWith(addr, nil, clusterPolicy(timeout))
	if err != nil {
		return false, fmt.Sprintf("down (%v)", err)
	}
	defer c.Close()
	start := time.Now()
	if _, err := c.Stat("/"); err != nil {
		return false, fmt.Sprintf("down (%v)", err)
	}
	rtt := float64(time.Since(start).Microseconds()) / 1000
	_, version, err := c.FetchClusterTable()
	if err != nil {
		return true, fmt.Sprintf("up    %.3fms  table unavailable (%v)", rtt, err)
	}
	return true, fmt.Sprintf("up    %.3fms  table v%d", rtt, version)
}

func cmdClusterPush(out io.Writer, args []string) error {
	fs := flag.NewFlagSet("cluster push", flag.ExitOnError)
	tableFile := fs.String("table", "", "placement table JSON to install")
	timeout := fs.Duration("timeout", 2*time.Second, "per-attempt call deadline")
	fs.Parse(args)
	if *tableFile == "" {
		return fmt.Errorf("cluster push needs -table")
	}
	data, err := os.ReadFile(*tableFile)
	if err != nil {
		return err
	}
	tbl, err := placement.Unmarshal(data)
	if err != nil {
		return fmt.Errorf("cluster push: %s: %w", *tableFile, err)
	}
	addrs, err := nodeAddrs(tbl)
	if err != nil {
		return err
	}
	return pushTable(out, data, tbl.Version, addrs, *timeout)
}

// pushTable installs one table version on every listed node; a node that
// rejects it (stale version) or cannot be reached fails the push so the
// operator never ends up with a silently split table.
func pushTable(out io.Writer, data []byte, version uint64, addrs map[string]string, timeout time.Duration) error {
	var failed int
	for name, addr := range addrs {
		err := func() error {
			c, err := rpc.DialWith(addr, nil, clusterPolicy(timeout))
			if err != nil {
				return err
			}
			defer c.Close()
			return c.PushClusterTable(data, version)
		}()
		if err != nil {
			failed++
			fmt.Fprintf(out, "  %s (%s): %v\n", name, addr, err)
			continue
		}
		fmt.Fprintf(out, "  %s (%s): table v%d installed\n", name, addr, version)
	}
	if failed > 0 {
		return fmt.Errorf("cluster: table v%d rejected by %d node(s)", version, failed)
	}
	return nil
}

func cmdClusterRebalance(out io.Writer, args []string) error {
	fs := flag.NewFlagSet("cluster rebalance", flag.ExitOnError)
	addr := fs.String("addr", "", "any cluster node (host:port)")
	tableFile := fs.String("table", "", "target placement table JSON")
	timeout := fs.Duration("timeout", 5*time.Second, "per-attempt call deadline")
	fs.Parse(args)
	if *addr == "" || *tableFile == "" {
		return fmt.Errorf("cluster rebalance needs -addr and -table")
	}
	cur, _, err := fetchTable(*addr, *timeout)
	if err != nil {
		return err
	}
	nextData, err := os.ReadFile(*tableFile)
	if err != nil {
		return err
	}
	next, err := placement.Unmarshal(nextData)
	if err != nil {
		return fmt.Errorf("cluster rebalance: %s: %w", *tableFile, err)
	}
	if next.Version <= cur.Version {
		return fmt.Errorf("cluster rebalance: target v%d is not newer than the cluster's v%d",
			next.Version, cur.Version)
	}
	curAddrs, err := nodeAddrs(cur)
	if err != nil {
		return err
	}
	nextAddrs, err := nodeAddrs(next)
	if err != nil {
		return err
	}

	// One client per node across both memberships: leaving nodes must
	// still serve copies out, joining nodes must accept copies in.
	clients := map[string]*rpc.Client{}
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	fss := map[string]vfs.FS{}
	for name, a := range curAddrs {
		clients[name] = rpc.DialLazy(a, nil, clusterPolicy(*timeout))
		fss[name] = clients[name]
	}
	for name, a := range nextAddrs {
		if _, ok := clients[name]; !ok {
			clients[name] = rpc.DialLazy(a, nil, clusterPolicy(*timeout))
			fss[name] = clients[name]
		}
	}
	cluster, err := placement.NewCluster(cur, fss, placement.Config{})
	if err != nil {
		return err
	}
	dirs, err := cluster.DataDirs("/")
	if err != nil {
		return fmt.Errorf("cluster rebalance: scan: %w", err)
	}
	fmt.Fprintf(out, "rebalancing %d container dirs from table v%d to v%d\n",
		len(dirs), cur.Version, next.Version)
	rep, err := cluster.Rebalance(next, dirs)
	if err != nil {
		return fmt.Errorf("cluster rebalance: %w (data is intact; rerun after fixing the cause)", err)
	}
	fmt.Fprintf(out, "moved %d files (%d bytes) across %d dirs, dropped %d surplus copies\n",
		rep.FilesCopied, rep.BytesCopied, rep.Dirs, rep.FilesDropped)

	// Publish the new table to every node that will keep running under it,
	// plus the ones that just left (they answer status queries until shut
	// down).
	all := map[string]string{}
	for name, a := range curAddrs {
		all[name] = a
	}
	for name, a := range nextAddrs {
		all[name] = a
	}
	return pushTable(out, nextData, next.Version, all, *timeout)
}
