package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/osfs"
	"repro/internal/placement"
	"repro/internal/plfs"
	"repro/internal/rpc"
	"repro/internal/vfs"
	"repro/internal/xtc"
)

const (
	nodeCount   = 3
	replication = 2
	poolSize    = 2 // connections per node, as adactl dials them
	mount       = "/ada"
)

// node is one in-process storage node: the server cmd/adanode builds
// (rpc.NewServer over osfs.New), without its flag parsing and HTTP metrics
// endpoint, which are off the data path.
type node struct {
	name string
	dir  string
	addr string
	srv  *rpc.Server
	reg  *metrics.Registry
	done chan error
}

// cluster is the storage side: three nodes on loopback TCP and the
// placement table that spreads containers over them.
type cluster struct {
	nodes []*node
	table *placement.Table
}

// startCluster serves root/n0..n2. With a recorder, each node's osfs is
// wrapped at the node seam before the server sees it.
func startCluster(root string, rec *recorder) (*cluster, error) {
	c := &cluster{table: &placement.Table{Version: 1, Replication: replication}}
	for i := 0; i < nodeCount; i++ {
		n := &node{name: fmt.Sprintf("n%d", i), reg: metrics.NewRegistry(), done: make(chan error, 1)}
		n.dir = filepath.Join(root, n.name)
		base, err := osfs.New(n.dir)
		if err != nil {
			c.close()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, err
		}
		n.addr = ln.Addr().String()
		n.srv = rpc.NewServer(traceFS(base, rec, layerOSFS, lvNode, -1, i), nil)
		n.srv.SetMetrics(n.reg)
		go func() { n.done <- n.srv.Serve(ln) }()
		c.nodes = append(c.nodes, n)
		c.table.Nodes = append(c.table.Nodes, placement.Node{Name: n.name, Addr: n.addr})
	}
	return c, nil
}

// close drains and stops every node and waits for its accept loop.
func (c *cluster) close() error {
	var first error
	for _, n := range c.nodes {
		if err := n.srv.Close(); err != nil && first == nil {
			first = err
		}
		if err := <-n.done; !errors.Is(err, rpc.ErrServerClosed) && first == nil {
			first = err
		}
	}
	return first
}

// stack is one client host's view of the cluster: its own connection
// pools, placement router, container store and ADA instance. Every
// component gets a private registry so its counters describe this stack
// only.
type stack struct {
	id       int
	pools    []*rpc.Pool
	rpcReg   *metrics.Registry
	placeReg *metrics.Registry
	router   *placement.Cluster
	store    *plfs.FS
	ada      *core.ADA
}

// dial builds a client stack. With a recorder, each pool is wrapped at
// the pool seam and the router at the cluster seam.
func (c *cluster) dial(id int, rec *recorder) (*stack, error) {
	s := &stack{id: id, rpcReg: metrics.NewRegistry(), placeReg: metrics.NewRegistry()}
	fss := map[string]vfs.FS{}
	for i, n := range c.nodes {
		p := rpc.NewPool(n.addr, poolSize, nil, rpc.DefaultRetryPolicy())
		p.SetMetrics(s.rpcReg)
		s.pools = append(s.pools, p)
		fss[n.name] = traceFS(p, rec, layerRPC, lvPool, id, i)
	}
	var err error
	// Hedged reads are off, as adactl dials a cluster, not on as the issue
	// asked. A placement read handle takes its size from one replica at
	// Open and opens the mirror by name only when a hedge fires; a tailer
	// reading a live index the producer is renaming into place replica by
	// replica can so get the length of one version and the bytes of
	// another. The benchmark must run workloads on which nothing fails;
	// see benchmarks/README.md.
	s.router, err = placement.NewCluster(c.table, fss, placement.Config{HedgeDelay: -1, Metrics: s.placeReg})
	if err != nil {
		s.close()
		return nil, err
	}
	s.store, err = plfs.New(plfs.Backend{
		Name: "cluster", Mount: mount,
		FS: traceFS(s.router, rec, layerPlacement, lvCluster, id, -1),
	})
	if err != nil {
		s.close()
		return nil, err
	}
	s.store.SetMetrics(metrics.NewRegistry())
	s.ada = core.New(s.store, nil, core.Options{Metrics: metrics.NewRegistry()})
	return s, nil
}

func (s *stack) close() {
	for _, p := range s.pools {
		p.Close()
	}
}

// ---- looking at what the nodes hold ----

// dropping is one file of a container as the node directories hold it.
type dropping struct {
	size   int64
	copies int
	crc    uint32 // CRC32C of the content, when asked for
}

// inspect reads a container straight from the node directories. With
// hash set it also checksums every copy and fails if two copies of a
// dropping differ.
func (c *cluster) inspect(logical string, hash bool) (map[string]dropping, error) {
	out := map[string]dropping{}
	for _, n := range c.nodes {
		dir := filepath.Join(n.dir, mount, logical)
		ents, err := os.ReadDir(dir)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, err
		}
		for _, e := range ents {
			info, err := e.Info()
			if err != nil {
				return nil, err
			}
			d, seen := out[e.Name()]
			if seen && d.size != info.Size() {
				return nil, fmt.Errorf("%s/%s: copies of %d and %d bytes", logical, e.Name(), d.size, info.Size())
			}
			d.size = info.Size()
			d.copies++
			if hash {
				crc, err := droppingCRC(filepath.Join(dir, e.Name()), logical)
				if err != nil {
					return nil, err
				}
				if seen && crc != d.crc {
					return nil, fmt.Errorf("%s/%s: copies differ", logical, e.Name())
				}
				d.crc = crc
			}
			out[e.Name()] = d
		}
	}
	return out, nil
}

// droppingCRC checksums one file of a container. The manifest embeds the
// logical name, which is blanked so that containers of different names
// compare equal; every other dropping is streamed.
func droppingCRC(path, logical string) (uint32, error) {
	if filepath.Base(path) == "manifest.json" {
		data, err := os.ReadFile(path)
		if err != nil {
			return 0, err
		}
		return xtc.CRC32C(bytes.ReplaceAll(data, []byte(`"`+logical+`"`), []byte(`""`))), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var crc uint32
	buf := make([]byte, 1<<20)
	for {
		n, err := f.Read(buf)
		crc = xtc.CRC32CUpdate(crc, buf[:n])
		if err == io.EOF {
			return crc, nil
		}
		if err != nil {
			return 0, err
		}
	}
}

// checkCommitted verifies a committed container against the reference
// one: the same droppings of the same sizes (and content, when hashed),
// each on exactly R nodes, and nothing an in-flight ingest leaves behind.
// It returns the bytes the container occupies over all nodes.
func (c *cluster) checkCommitted(logical string, ref map[string]dropping, hash bool) (int64, error) {
	got, err := c.inspect(logical, hash)
	if err != nil {
		return 0, err
	}
	var total int64
	for name, d := range got {
		if name == "ingest.journal" || strings.HasPrefix(name, "staging.") || strings.HasPrefix(name, "live.") {
			return 0, fmt.Errorf("%s: leftover %s", logical, name)
		}
		if d.copies != replication {
			return 0, fmt.Errorf("%s/%s: %d copies, want %d", logical, name, d.copies, replication)
		}
		total += d.size * int64(d.copies)
		if ref == nil {
			continue
		}
		r, ok := ref[name]
		if !ok || r.size != d.size || (hash && r.crc != d.crc) {
			return 0, fmt.Errorf("%s/%s: differs from the one-shot reference", logical, name)
		}
	}
	if ref != nil && len(got) != len(ref) {
		return 0, fmt.Errorf("%s: %d droppings, reference has %d", logical, len(got), len(ref))
	}
	if len(got) == 0 {
		return 0, fmt.Errorf("%s: no droppings on any node", logical)
	}
	return total, nil
}

// checkGone verifies a removed container left no file on any node.
func (c *cluster) checkGone(logical string) error {
	got, err := c.inspect(logical, false)
	if err != nil {
		return err
	}
	if len(got) != 0 {
		return fmt.Errorf("%s: %d files survive Remove", logical, len(got))
	}
	return nil
}
