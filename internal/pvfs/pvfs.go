// Package pvfs implements a PVFS/OrangeFS-like parallel file system: a
// metadata server mapping paths to striped layouts, and N data servers
// each holding every k-th stripe of a file. Reads and writes move stripes
// over per-server network links in parallel; elapsed virtual time is the
// slowest of the per-server device+link times and the client NIC drain,
// matching how a striped parallel read actually behaves.
//
// The paper's nine-node cluster runs two independent PVFS instances — one
// over the three HDD storage nodes and one over the three SSD nodes — and
// ADA's I/O dispatcher steers subsets between them.
//
// Timing semantics: stripes touched within ONE Read/Write call proceed in
// parallel (the elapsed charge is the slowest server, as a parallel client
// library behaves). A caller that streams in small chunks touches one
// stripe per call and therefore serializes, like a client with no
// readahead; whole-file reads (vfs.ReadFile) get the full parallelism. The
// analytic models in internal/platform assume the parallel whole-file case.
package pvfs

import (
	"fmt"
	"io"
	"path"
	"sort"
	"strings"
	"sync"

	"repro/internal/device"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// DefaultStripeSize is the striping unit (the OrangeFS default, 64 KiB,
// scaled up to 1 MiB as deployments typically configure for HPC I/O).
const DefaultStripeSize = 1 << 20

// metadataLatency is the virtual cost of one metadata operation.
const metadataLatency = 200e-6

// Server describes one data server.
type Server struct {
	Name string
	Dev  device.Device
	Link netsim.Link
}

// Config configures a parallel file system instance.
type Config struct {
	Label      string // used in profile buckets, e.g. "pvfs-ssd"
	StripeSize int64
	Servers    []Server
	ClientLink netsim.Link // the compute node's NIC
}

// FS is a parallel file system client bound to one metadata domain.
type FS struct {
	mu      sync.Mutex
	cfg     Config
	env     *sim.Env
	nodes   map[string]*mnode
	stores  []*vfs.MemFS
	nextID  int64
	nextSrv int
}

type mnode struct {
	isDir bool
	size  int64
	id    int64 // stripe namespace on the data servers
	first int   // server index of stripe 0 (round-robin placement)
}

var _ vfs.FS = (*FS)(nil)

// New returns a parallel FS with the given configuration. env may be nil to
// disable time accounting.
func New(cfg Config, env *sim.Env) (*FS, error) {
	if len(cfg.Servers) == 0 {
		return nil, fmt.Errorf("pvfs: no data servers configured")
	}
	if cfg.StripeSize <= 0 {
		cfg.StripeSize = DefaultStripeSize
	}
	if cfg.Label == "" {
		cfg.Label = "pvfs"
	}
	if cfg.ClientLink.Bandwidth == 0 {
		cfg.ClientLink = netsim.InfiniBand()
	}
	fs := &FS{
		cfg:   cfg,
		env:   env,
		nodes: map[string]*mnode{"/": {isDir: true}},
	}
	for range cfg.Servers {
		fs.stores = append(fs.stores, vfs.NewMemFS())
	}
	return fs, nil
}

// Label returns the instance label.
func (s *FS) Label() string { return s.cfg.Label }

// NumServers returns the data server count.
func (s *FS) NumServers() int { return len(s.cfg.Servers) }

// TotalBytes returns the bytes stored across all data servers.
func (s *FS) TotalBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, st := range s.stores {
		n += st.TotalBytes()
	}
	return n
}

func (s *FS) chargeMeta() {
	if s.env != nil {
		s.env.Charge("meta."+s.cfg.Label, metadataLatency)
	}
}

// stripePath names stripe k of file id on its data server.
func stripePath(id int64, k int64) string {
	return fmt.Sprintf("/stripes/%d/%d", id, k)
}

// Create implements vfs.FS.
func (s *FS) Create(name string) (vfs.File, error) {
	name = vfs.Clean(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.chargeMeta()
	dir := path.Dir(name)
	dn, ok := s.nodes[dir]
	if !ok {
		return nil, fmt.Errorf("%w: %s", vfs.ErrNotExist, dir)
	}
	if !dn.isDir {
		return nil, fmt.Errorf("%w: %s", vfs.ErrNotDir, dir)
	}
	if n, ok := s.nodes[name]; ok {
		if n.isDir {
			return nil, fmt.Errorf("%w: %s", vfs.ErrIsDir, name)
		}
		s.removeStripesLocked(n)
	}
	s.nextID++
	n := &mnode{id: s.nextID, first: s.nextSrv}
	s.nextSrv = (s.nextSrv + 1) % len(s.cfg.Servers)
	s.nodes[name] = n
	return &pfile{fs: s, name: name, node: n, writable: true, lastReadEnd: -1, lastWriteEnd: -1}, nil
}

func (s *FS) removeStripesLocked(n *mnode) {
	stripes := (n.size + s.cfg.StripeSize - 1) / s.cfg.StripeSize
	for k := int64(0); k < stripes; k++ {
		srv := (n.first + int(k)) % len(s.stores)
		_ = s.stores[srv].Remove(stripePath(n.id, k))
	}
}

// Open implements vfs.FS.
func (s *FS) Open(name string) (vfs.File, error) {
	name = vfs.Clean(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.chargeMeta()
	n, ok := s.nodes[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", vfs.ErrNotExist, name)
	}
	if n.isDir {
		return nil, fmt.Errorf("%w: %s", vfs.ErrIsDir, name)
	}
	return &pfile{fs: s, name: name, node: n, lastReadEnd: -1, lastWriteEnd: -1}, nil
}

// Stat implements vfs.FS.
func (s *FS) Stat(name string) (vfs.FileInfo, error) {
	name = vfs.Clean(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.chargeMeta()
	n, ok := s.nodes[name]
	if !ok {
		return vfs.FileInfo{}, fmt.Errorf("%w: %s", vfs.ErrNotExist, name)
	}
	return vfs.FileInfo{Name: path.Base(name), Size: n.size, IsDir: n.isDir}, nil
}

// ReadDir implements vfs.FS.
func (s *FS) ReadDir(name string) ([]vfs.FileInfo, error) {
	name = vfs.Clean(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.chargeMeta()
	n, ok := s.nodes[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", vfs.ErrNotExist, name)
	}
	if !n.isDir {
		return nil, fmt.Errorf("%w: %s", vfs.ErrNotDir, name)
	}
	prefix := name
	if prefix != "/" {
		prefix += "/"
	}
	var out []vfs.FileInfo
	for p, node := range s.nodes {
		if p == name || !strings.HasPrefix(p, prefix) {
			continue
		}
		rest := p[len(prefix):]
		if strings.Contains(rest, "/") {
			continue
		}
		out = append(out, vfs.FileInfo{Name: rest, Size: node.size, IsDir: node.isDir})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// MkdirAll implements vfs.FS.
func (s *FS) MkdirAll(name string) error {
	name = vfs.Clean(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.chargeMeta()
	segs := strings.Split(strings.TrimPrefix(name, "/"), "/")
	cur := ""
	for _, seg := range segs {
		if seg == "" {
			continue
		}
		cur += "/" + seg
		if n, ok := s.nodes[cur]; ok {
			if !n.isDir {
				return fmt.Errorf("%w: %s", vfs.ErrNotDir, cur)
			}
			continue
		}
		s.nodes[cur] = &mnode{isDir: true}
	}
	return nil
}

// Remove implements vfs.FS.
func (s *FS) Remove(name string) error {
	name = vfs.Clean(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.chargeMeta()
	n, ok := s.nodes[name]
	if !ok {
		return fmt.Errorf("%w: %s", vfs.ErrNotExist, name)
	}
	if n.isDir {
		prefix := name + "/"
		for p := range s.nodes {
			if strings.HasPrefix(p, prefix) {
				return fmt.Errorf("pvfs: directory %s not empty", name)
			}
		}
	} else {
		s.removeStripesLocked(n)
	}
	delete(s.nodes, name)
	return nil
}

// Rename implements vfs.FS. Striping is keyed by immutable file id, so a
// rename is a pure metadata operation: the stripes never move.
func (s *FS) Rename(oldname, newname string) error {
	oldname = vfs.Clean(oldname)
	newname = vfs.Clean(newname)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.chargeMeta()
	n, ok := s.nodes[oldname]
	if !ok {
		return fmt.Errorf("%w: %s", vfs.ErrNotExist, oldname)
	}
	if oldname == newname {
		return nil
	}
	dir := path.Dir(newname)
	dn, ok := s.nodes[dir]
	if !ok {
		return fmt.Errorf("%w: %s", vfs.ErrNotExist, dir)
	}
	if !dn.isDir {
		return fmt.Errorf("%w: %s", vfs.ErrNotDir, dir)
	}
	if dst, ok := s.nodes[newname]; ok {
		if dst.isDir != n.isDir {
			if dst.isDir {
				return fmt.Errorf("%w: %s", vfs.ErrIsDir, newname)
			}
			return fmt.Errorf("%w: %s", vfs.ErrNotDir, newname)
		}
		if dst.isDir {
			prefix := newname + "/"
			for p := range s.nodes {
				if strings.HasPrefix(p, prefix) {
					return fmt.Errorf("pvfs: directory %s not empty", newname)
				}
			}
		} else {
			s.removeStripesLocked(dst)
		}
	}
	if n.isDir {
		if strings.HasPrefix(newname, oldname+"/") {
			return fmt.Errorf("pvfs: cannot move %s into itself", oldname)
		}
		prefix := oldname + "/"
		moved := make(map[string]*mnode)
		for p, node := range s.nodes {
			if strings.HasPrefix(p, prefix) {
				moved[newname+"/"+p[len(prefix):]] = node
				delete(s.nodes, p)
			}
		}
		for p, node := range moved {
			s.nodes[p] = node
		}
	}
	delete(s.nodes, oldname)
	s.nodes[newname] = n
	return nil
}

// chargeTransfer accounts one striped transfer: perServer maps server index
// to bytes moved. Wall time is the slowest server path or the client NIC,
// whichever is worse; per-server device time is recorded concurrently.
// ops is the positioning charge per server: zero for a sequential
// continuation of the previous access on the same handle.
func (s *FS) chargeTransfer(perServer map[int]int64, write bool, ops int) {
	if s.env == nil || len(perServer) == 0 {
		return
	}
	kind := "read"
	if write {
		kind = "write"
	}
	var worst, total int64
	var worstElapsed float64
	for idx, bytes := range perServer {
		srv := s.cfg.Servers[idx]
		var devTime float64
		if write {
			devTime = srv.Dev.WriteTime(bytes, ops)
		} else {
			devTime = srv.Dev.ReadTime(bytes, ops)
		}
		elapsed := devTime + srv.Link.TransferTime(bytes)
		if elapsed > worstElapsed {
			worstElapsed = elapsed
		}
		s.env.ChargeConcurrent(fmt.Sprintf("io.%s.%s.%s", kind, s.cfg.Label, srv.Name), devTime)
		total += bytes
		if bytes > worst {
			worst = bytes
		}
	}
	drain := s.cfg.ClientLink.TransferTime(total)
	if drain > worstElapsed {
		worstElapsed = drain
	}
	s.env.Clock.Advance(worstElapsed)
	s.env.Profile.Add("net."+kind+"."+s.cfg.Label, worstElapsed)
}

// pfile is an open striped file.
type pfile struct {
	fs       *FS
	name     string
	node     *mnode
	off      int64
	writable bool
	closed   bool
	// Sequential-access tracking: continuing exactly where the previous
	// access ended does not pay another positioning charge.
	lastReadEnd  int64
	lastWriteEnd int64
}

// seqOps returns 0 for a sequential continuation, 1 otherwise.
func seqOps(off, lastEnd int64) int {
	if off == lastEnd {
		return 0
	}
	return 1
}

func (f *pfile) Name() string { return f.name }

func (f *pfile) Size() int64 {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	return f.node.size
}

// stripeServer returns the data-server index holding stripe k.
func (f *pfile) stripeServer(k int64) int {
	return (f.node.first + int(k)) % len(f.fs.stores)
}

func (f *pfile) readAtLocked(p []byte, off int64) (int, map[int]int64, error) {
	if off >= f.node.size {
		return 0, nil, io.EOF
	}
	perServer := map[int]int64{}
	ss := f.fs.cfg.StripeSize
	n := 0
	for n < len(p) && off < f.node.size {
		k := off / ss
		in := off % ss
		limit := ss - in
		if rem := f.node.size - off; rem < limit {
			limit = rem
		}
		if rem := int64(len(p) - n); rem < limit {
			limit = rem
		}
		srv := f.stripeServer(k)
		data, err := vfs.ReadFile(f.fs.stores[srv], stripePath(f.node.id, k))
		if err != nil {
			return n, perServer, fmt.Errorf("pvfs: %s stripe %d on %s: %w",
				f.name, k, f.fs.cfg.Servers[srv].Name, err)
		}
		c := copy(p[n:], data[in:in+limit])
		perServer[srv] += int64(c)
		n += c
		off += int64(c)
		if int64(c) < limit {
			return n, perServer, fmt.Errorf("pvfs: short stripe %d of %s", k, f.name)
		}
	}
	return n, perServer, nil
}

func (f *pfile) Read(p []byte) (int, error) {
	if f.closed {
		return 0, vfs.ErrClosed
	}
	f.fs.mu.Lock()
	start := f.off
	n, perServer, err := f.readAtLocked(p, f.off)
	f.off += int64(n)
	f.fs.mu.Unlock()
	f.fs.chargeTransfer(perServer, false, seqOps(start, f.lastReadEnd))
	if n > 0 {
		f.lastReadEnd = start + int64(n)
	}
	if err == nil && n < len(p) {
		return n, io.EOF
	}
	return n, err
}

func (f *pfile) ReadAt(p []byte, off int64) (int, error) {
	if f.closed {
		return 0, vfs.ErrClosed
	}
	if off < 0 {
		return 0, fmt.Errorf("pvfs: negative offset %d", off)
	}
	f.fs.mu.Lock()
	n, perServer, err := f.readAtLocked(p, off)
	f.fs.mu.Unlock()
	f.fs.chargeTransfer(perServer, false, seqOps(off, f.lastReadEnd))
	if n > 0 {
		f.lastReadEnd = off + int64(n)
	}
	if err == nil && n < len(p) {
		return n, io.EOF
	}
	return n, err
}

func (f *pfile) Write(p []byte) (int, error) {
	if f.closed {
		return 0, vfs.ErrClosed
	}
	if !f.writable {
		return 0, fmt.Errorf("pvfs: %s opened read-only", f.name)
	}
	f.fs.mu.Lock()
	ss := f.fs.cfg.StripeSize
	perServer := map[int]int64{}
	n := 0
	off := f.off
	for n < len(p) {
		k := off / ss
		in := off % ss
		limit := ss - in
		if rem := int64(len(p) - n); rem < limit {
			limit = rem
		}
		srv := f.stripeServer(k)
		store := f.fs.stores[srv]
		sp := stripePath(f.node.id, k)
		// Read-modify-write the stripe in the in-memory store.
		cur, err := vfs.ReadFile(store, sp)
		if err != nil {
			cur = nil
		}
		end := in + limit
		if int64(len(cur)) < end {
			grown := make([]byte, end)
			copy(grown, cur)
			cur = grown
		}
		copy(cur[in:end], p[n:n+int(limit)])
		if err := vfs.WriteFile(store, sp, cur); err != nil {
			f.fs.mu.Unlock()
			return n, fmt.Errorf("pvfs: write stripe %d: %w", k, err)
		}
		perServer[srv] += limit
		n += int(limit)
		off += limit
	}
	start := f.off
	f.off = off
	if off > f.node.size {
		f.node.size = off
	}
	f.fs.mu.Unlock()
	f.fs.chargeTransfer(perServer, true, seqOps(start, f.lastWriteEnd))
	f.lastWriteEnd = off
	return len(p), nil
}

func (f *pfile) Close() error {
	if f.closed {
		return vfs.ErrClosed
	}
	f.closed = true
	return nil
}
