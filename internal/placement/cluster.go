package placement

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/vfs"
)

// Config tunes a Cluster.
type Config struct {
	// Deprecated: HedgeDelay is ignored; reads fail over sequentially. It
	// is removed with the next change to the end-to-end benchmark, the last
	// caller that sets it.
	HedgeDelay time.Duration
	// Metrics receives the placement.* counters (metrics.Default when
	// nil).
	Metrics *metrics.Registry
}

// Cluster is a vfs.FS over a set of storage nodes, routed by a placement
// Table:
//
//   - Create opens the file on its full replica set and every Write lands
//     primary-then-mirror; any replica failure fails the write, so a
//     committed file either exists on all R replicas or the writer saw an
//     error (and the layers above roll the container back via their
//     journal).
//   - Open/ReadAt fail over across replicas on any error — a down node
//     (vfs.ErrBackendDown after RPC retries) or a corrupted copy
//     (vfs.ErrCorrupted from a verifying layer) silently degrades to the
//     next replica. A slow replica that still answers is waited on, not
//     raced.
//   - MkdirAll/Remove broadcast to every node (directories exist
//     everywhere; Remove tolerates per-node absence).
//   - Rename requires source and destination to share a replica set
//     (same container directory — the only rename the container store
//     performs) and converges when replaying over a partially renamed
//     set.
//
// Nodes that return vfs.ErrBackendDown are marked down (counted once per
// transition under placement.node.<name>.down) and deprioritized — never
// skipped entirely, so a wrongly marked node still gets retried when it
// is the last copy. Any read, stat or watch a node answers clears its mark;
// Probe checks one explicitly. This is the only memory of a down node in the
// storage stack: the layers above pass vfs.ErrBackendDown up and keep
// dispatching, the rpc clients below bound each call by its retry budget.
type Cluster struct {
	mu    sync.RWMutex
	table *Table
	nodes map[string]vfs.FS
	down  map[string]bool

	reg *metrics.Registry
	m   clusterMetrics
}

type clusterMetrics struct {
	reads     *metrics.Counter
	readNS    *metrics.Histogram
	failovers *metrics.Counter
}

// NewCluster builds a cluster over the table and one FS per node. Every
// table node must have an FS.
func NewCluster(table *Table, nodes map[string]vfs.FS, cfg Config) (*Cluster, error) {
	if err := table.Validate(); err != nil {
		return nil, err
	}
	for _, n := range table.Nodes {
		if nodes[n.Name] == nil {
			return nil, fmt.Errorf("placement: no FS for node %q", n.Name)
		}
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.Default
	}
	all := make(map[string]vfs.FS, len(nodes))
	for name, fsys := range nodes {
		all[name] = fsys
	}
	return &Cluster{
		table: table,
		nodes: all,
		down:  map[string]bool{},
		reg:   reg,
		m: clusterMetrics{
			reads:     reg.Counter("placement.reads"),
			readNS:    reg.Histogram("placement.read.ns"),
			failovers: reg.Counter("placement.failover.reads"),
		},
	}, nil
}

var _ vfs.FS = (*Cluster)(nil)

// Table returns the installed placement table.
func (c *Cluster) Table() *Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.table
}

// SetTable installs a newer table. The version must not go backwards, and
// every node the table names must have an FS (AddNode first).
func (c *Cluster) SetTable(t *Table) error {
	if err := t.Validate(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.Version < c.table.Version {
		return fmt.Errorf("placement: stale table version %d (cluster has %d)", t.Version, c.table.Version)
	}
	for _, n := range t.Nodes {
		if c.nodes[n.Name] == nil {
			return fmt.Errorf("placement: no FS for node %q", n.Name)
		}
	}
	c.table = t
	return nil
}

// AddNode registers (or replaces) the FS for a node, ahead of a SetTable
// that references it.
func (c *Cluster) AddNode(name string, fsys vfs.FS) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nodes[name] = fsys
}

// Node returns the FS registered for a node (nil if unknown).
func (c *Cluster) Node(name string) vfs.FS {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.nodes[name]
}

// Health reports each registered node's advisory state (true = up).
func (c *Cluster) Health() map[string]bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	h := make(map[string]bool, len(c.nodes))
	for name := range c.nodes {
		h[name] = !c.down[name]
	}
	return h
}

// Probe checks one node with a root stat, clearing or setting its down
// mark by the outcome.
func (c *Cluster) Probe(name string) error {
	fsys := c.Node(name)
	if fsys == nil {
		return fmt.Errorf("placement: unknown node %q", name)
	}
	_, err := fsys.Stat("/")
	c.note(name, err)
	return err
}

// note records what one operation on a node says about the node: success
// clears its down mark, a transport-level failure (vfs.ErrBackendDown, i.e.
// RPC retries exhausted) sets it, and any other error — the node answered —
// leaves it as it was.
func (c *Cluster) note(name string, err error) {
	down := errors.Is(err, vfs.ErrBackendDown)
	if err != nil && !down {
		return
	}
	c.mu.RLock()
	marked := c.down[name]
	c.mu.RUnlock()
	if marked == down {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !down {
		delete(c.down, name)
	} else if !c.down[name] {
		c.down[name] = true
		c.reg.Counter("placement.node." + name + ".down").Inc()
	}
}

// place returns the replica set for name under the current table.
func (c *Cluster) place(name string) []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.table.Place(name)
}

// fs returns the FS for a node name; the node is always registered
// (tables are validated against the node map).
func (c *Cluster) fs(name string) vfs.FS {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.nodes[name]
}

// order appends to buf the indices of reps in the order to try them: pref
// first (pass -1 for none), then the rest with down-marked nodes last —
// deprioritized, never dropped, since a stale mark must not make data
// unreachable.
func (c *Cluster) order(buf []int, reps []string, pref int) []int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if pref >= 0 {
		buf = append(buf, pref)
	}
	for _, down := range [2]bool{false, true} {
		for i, name := range reps {
			if i != pref && c.down[name] == down {
				buf = append(buf, i)
			}
		}
	}
	return buf
}

// errReadClosed is what a clusterFile read's op returns when the handle
// closed under a copy it was reading: the copy failed for that, not for
// anything its replica did, so firstReplica tries no other.
var errReadClosed = errors.New("placement: handle closed mid-read")

// firstReplica runs op on each replica of reps in turn (see order) until one
// answers, noting every outcome against its node's health. It returns nil on
// the first success, errReadClosed as soon as op does, else the first error.
func (c *Cluster) firstReplica(reps []string, pref int, op func(i int) error) error {
	var buf [4]int // replica sets are small: the order stays on the stack
	var firstErr error
	for _, i := range c.order(buf[:0], reps, pref) {
		err := op(i)
		c.note(reps[i], err)
		if err == nil || err == errReadClosed {
			return err
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// allNodes returns every registered node name, sorted for determinism.
func (c *Cluster) allNodes() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.nodes))
	for name := range c.nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Create implements vfs.FS: the file opens on its whole replica set, and
// every write lands primary-then-mirror (see replFile).
func (c *Cluster) Create(name string) (vfs.File, error) {
	reps := c.place(name)
	files := make([]vfs.File, 0, len(reps))
	for _, node := range reps {
		f, err := c.fs(node).Create(name)
		if err != nil {
			for i, g := range files {
				g.Close()
				c.fs(reps[i]).Remove(name) // best-effort undo of the partial set
			}
			c.note(node, err)
			return nil, fmt.Errorf("placement: create %s on %s: %w", name, node, err)
		}
		files = append(files, f)
	}
	return &replFile{name: vfs.Clean(name), reps: reps, files: files, c: c}, nil
}

// Open implements vfs.FS, returning a read handle that fails over across
// the replica set.
func (c *Cluster) Open(name string) (vfs.File, error) {
	reps := c.place(name)
	f := &clusterFile{c: c, name: vfs.Clean(name), reps: reps, files: make([]vfs.File, len(reps))}
	err := c.firstReplica(reps, -1, func(i int) error {
		h, err := c.fs(reps[i]).Open(name)
		if err != nil {
			return err
		}
		f.files[i], f.pref, f.size = h, i, h.Size()
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("placement: open %s: %w", name, err)
	}
	return f, nil
}

// WatchFile long-polls name until its content differs from lastCRC or the
// timeout elapses (see vfs.WatchFile), failing over across the replica set.
// A node failure mid-watch moves the poll to the next replica with the
// remaining timeout, so a tailing reader survives losing R-1 replicas — the
// same guarantee demand reads have.
func (c *Cluster) WatchFile(name string, lastCRC uint32, timeout time.Duration) (data []byte, crc uint32, changed bool, err error) {
	deadline := time.Now().Add(timeout)
	reps := c.place(name)
	err = c.firstReplica(reps, -1, func(i int) (err error) {
		data, crc, changed, err = vfs.WatchFile(c.fs(reps[i]), name, lastCRC, time.Until(deadline))
		return err
	})
	if err != nil {
		return nil, 0, false, fmt.Errorf("placement: watch %s: %w", name, err)
	}
	return data, crc, changed, nil
}

// Stat implements vfs.FS, failing over across the replica set. Absence is
// reported only when every replica agrees (or is unreachable).
func (c *Cluster) Stat(name string) (info vfs.FileInfo, err error) {
	reps := c.place(name)
	err = c.firstReplica(reps, -1, func(i int) (err error) {
		info, err = c.fs(reps[i]).Stat(name)
		return err
	})
	return info, err
}

// ReadDir implements vfs.FS as a union over every node, so listings stay
// complete while any replica of each file is reachable. Per-node absence
// and down nodes are tolerated; absence is reported only when no node has
// the directory. When replicas disagree on a file's size (a torn mirror
// mid-recovery) the largest copy is reported.
func (c *Cluster) ReadDir(name string) ([]vfs.FileInfo, error) {
	merged := map[string]vfs.FileInfo{}
	var firstErr error
	answered := false
	for _, node := range c.allNodes() {
		entries, err := c.fs(node).ReadDir(name)
		if err != nil {
			if !errors.Is(err, vfs.ErrNotExist) {
				c.note(node, err)
				if firstErr == nil {
					firstErr = err
				}
			}
			continue
		}
		answered = true
		for _, e := range entries {
			if prev, ok := merged[e.Name]; !ok || e.Size > prev.Size {
				merged[e.Name] = e
			}
		}
	}
	if !answered {
		if firstErr != nil {
			return nil, firstErr
		}
		return nil, fmt.Errorf("placement: readdir %s: %w", name, vfs.ErrNotExist)
	}
	out := make([]vfs.FileInfo, 0, len(merged))
	for _, e := range merged {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// MkdirAll implements vfs.FS, broadcasting to every node: directories are
// cheap and existing everywhere keeps Stat/Create/ReadDir simple.
func (c *Cluster) MkdirAll(name string) error {
	for _, node := range c.allNodes() {
		if err := c.fs(node).MkdirAll(name); err != nil {
			c.note(node, err)
			return fmt.Errorf("placement: mkdirall %s on %s: %w", name, node, err)
		}
	}
	return nil
}

// Remove implements vfs.FS, broadcasting to every node. Per-node absence
// is fine (files live only on their replicas; leftovers may sit anywhere
// after a membership change), but an unreachable node fails the call —
// a copy could survive there, and "removed" must mean removed.
func (c *Cluster) Remove(name string) error {
	removed := 0
	var firstErr error
	for _, node := range c.allNodes() {
		err := c.fs(node).Remove(name)
		if err == nil {
			removed++
			continue
		}
		if errors.Is(err, vfs.ErrNotExist) {
			continue
		}
		c.note(node, err)
		if firstErr == nil {
			firstErr = fmt.Errorf("placement: remove %s on %s: %w", name, node, err)
		}
	}
	if firstErr != nil {
		return firstErr
	}
	if removed == 0 {
		return fmt.Errorf("placement: remove %s: %w", name, vfs.ErrNotExist)
	}
	return nil
}

// Rename implements vfs.FS for same-replica-set renames (the container
// store only renames within a container directory). The rename applies on
// every replica; a replica where the source is already gone but the
// destination exists counts as applied, so replaying a commit that a
// crash left half-renamed converges instead of failing.
func (c *Cluster) Rename(oldname, newname string) error {
	reps := c.place(oldname)
	if !sameSet(reps, c.place(newname)) {
		return fmt.Errorf("placement: rename %s -> %s crosses replica sets", oldname, newname)
	}
	applied := 0
	var firstErr error
	for _, node := range reps {
		err := c.fs(node).Rename(oldname, newname)
		if err == nil {
			applied++
			continue
		}
		if errors.Is(err, vfs.ErrNotExist) &&
			!vfs.Exists(c.fs(node), oldname) && vfs.Exists(c.fs(node), newname) {
			applied++ // already renamed on this replica: idempotent replay
			continue
		}
		c.note(node, err)
		if firstErr == nil {
			firstErr = fmt.Errorf("placement: rename %s on %s: %w", oldname, node, err)
		}
	}
	if firstErr != nil {
		return firstErr
	}
	if applied == 0 {
		return fmt.Errorf("placement: rename %s: %w", oldname, vfs.ErrNotExist)
	}
	return nil
}

func sameSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	in := make(map[string]bool, len(a))
	for _, s := range a {
		in[s] = true
	}
	for _, s := range b {
		if !in[s] {
			return false
		}
	}
	return true
}

// replFile mirrors writes across a replica set, primary first. Reads come
// from the primary (the caller just wrote the bytes; this is the
// read-back-verify path, not playback).
type replFile struct {
	name  string
	reps  []string
	files []vfs.File
	c     *Cluster
}

func (f *replFile) Name() string { return f.name }
func (f *replFile) Size() int64  { return f.files[0].Size() }

func (f *replFile) Write(p []byte) (int, error) {
	n, err := f.files[0].Write(p)
	if err != nil {
		f.c.note(f.reps[0], err)
		return n, fmt.Errorf("placement: write %s on %s: %w", f.name, f.reps[0], err)
	}
	for i := 1; i < len(f.files); i++ {
		if _, err := f.files[i].Write(p[:n]); err != nil {
			f.c.note(f.reps[i], err)
			return 0, fmt.Errorf("placement: mirror write %s on %s: %w", f.name, f.reps[i], err)
		}
	}
	return n, nil
}

func (f *replFile) Read(p []byte) (int, error)              { return f.files[0].Read(p) }
func (f *replFile) ReadAt(p []byte, off int64) (int, error) { return f.files[0].ReadAt(p, off) }

func (f *replFile) Close() error {
	var firstErr error
	for i, g := range f.files {
		if err := g.Close(); err != nil && firstErr == nil {
			f.c.note(f.reps[i], err)
			firstErr = fmt.Errorf("placement: close %s on %s: %w", f.name, f.reps[i], err)
		}
	}
	return firstErr
}

// clusterFile is a read handle spanning a replica set: per-replica
// handles open lazily, reads prefer the last replica that answered, any
// error fails over to the next replica. The handle is
// one version of the file — the one whose size it took at Open — and a
// replica found holding another size is a failed copy for it, so a read
// never joins the length of one version to the bytes of another. Safe for
// concurrent use (the serve fabric's workers issue overlapping ReadAts).
type clusterFile struct {
	c    *Cluster
	name string
	reps []string

	mu     sync.Mutex
	files  []vfs.File // indexed like reps; nil = not open
	pref   int        // preferred replica index
	size   int64
	off    int64 // sequential Read cursor
	closed bool
}

func (f *clusterFile) Name() string { return f.name }

func (f *clusterFile) Size() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.size
}

func (f *clusterFile) Write(p []byte) (int, error) {
	return 0, fmt.Errorf("placement: %s opened read-only (writes go through Create)", f.name)
}

// handle returns the open handle for replica i, opening it on demand. A
// copy that is not the size this handle was opened at has been replaced (or
// not yet replaced) since: it is refused rather than read.
func (f *clusterFile) handle(i int) (vfs.File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, vfs.ErrClosed
	}
	if f.files[i] != nil {
		return f.files[i], nil
	}
	h, err := f.c.fs(f.reps[i]).Open(f.name)
	if err != nil {
		return nil, err
	}
	if size := h.Size(); size != f.size {
		h.Close()
		return nil, fmt.Errorf("placement: %s on %s is %d bytes, this handle opened %d: another version",
			f.name, f.reps[i], size, f.size)
	}
	f.files[i] = h
	return h, nil
}

// dropHandle discards replica i's handle after a failure (its state is
// suspect; a later attempt reopens).
func (f *clusterFile) dropHandle(i int) {
	f.mu.Lock()
	h := f.files[i]
	f.files[i] = nil
	f.mu.Unlock()
	if h != nil {
		h.Close()
	}
}

func (f *clusterFile) setPreferred(i int) {
	f.mu.Lock()
	f.pref = i
	f.mu.Unlock()
}

func (f *clusterFile) preferred() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.pref
}

func (f *clusterFile) Read(p []byte) (int, error) {
	f.mu.Lock()
	off := f.off
	f.mu.Unlock()
	n, err := f.ReadAt(p, off)
	f.mu.Lock()
	f.off += int64(n)
	f.mu.Unlock()
	return n, err
}

func (f *clusterFile) ReadAt(p []byte, off int64) (int, error) {
	return f.readAt(p, off, nil)
}

// ReadAtVerified is ReadAt for a caller that can tell good bytes from bad
// (see vfs.ReadAtVerified): a copy whose bytes ok rejects fails over to the
// next replica exactly like a copy whose read errored, without a down mark —
// the node answered. Only when no copy passes is the read vfs.ErrCorrupted.
func (f *clusterFile) ReadAtVerified(p []byte, off int64, ok func([]byte) bool) error {
	_, err := f.readAt(p, off, ok)
	if err == io.EOF {
		return nil // ok has seen all of p
	}
	return err
}

func (f *clusterFile) isClosed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.closed
}

// readAt reads from the replica set in turn, the preferred replica first,
// failing over on any error or on bytes a non-nil ok rejects. A read that
// loses a race with Close is vfs.ErrClosed, with no failover counted.
func (f *clusterFile) readAt(p []byte, off int64, ok func([]byte) bool) (int, error) {
	if f.isClosed() {
		return 0, vfs.ErrClosed
	}
	f.c.m.reads.Inc()
	start := time.Now()
	var n, tried int
	var eof error // io.EOF when the copy that answered ended inside p
	err := f.c.firstReplica(f.reps, f.preferred(), func(i int) error {
		tried++
		h, err := f.handle(i)
		if err == nil {
			n, err = h.ReadAt(p, off)
			if err = checked(ok, p, n, err); err == nil || err == io.EOF {
				eof = err
				f.setPreferred(i)
				return nil
			}
		}
		f.dropHandle(i)
		if f.isClosed() {
			return errReadClosed
		}
		if tried < len(f.reps) {
			f.c.m.failovers.Inc()
		}
		return err
	})
	if err == errReadClosed {
		return 0, vfs.ErrClosed
	}
	if err != nil {
		return 0, fmt.Errorf("placement: read %s: all replicas failed: %w", f.name, err)
	}
	f.c.m.readNS.Observe(time.Since(start).Nanoseconds())
	return n, eof
}

// checked folds the caller's verdict into one copy's read result: with an ok
// to ask, bytes that are short or that it rejects make the copy a failed one.
func checked(ok func([]byte) bool, p []byte, n int, err error) error {
	if ok != nil && (err == nil || err == io.EOF) && (n < len(p) || !ok(p)) {
		return vfs.ErrCorrupted
	}
	return err
}

func (f *clusterFile) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return vfs.ErrClosed
	}
	f.closed = true
	open := make([]vfs.File, 0, len(f.files))
	for i, h := range f.files {
		if h != nil {
			open = append(open, h)
			f.files[i] = nil
		}
	}
	f.mu.Unlock()
	var firstErr error
	for _, h := range open {
		if err := h.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
