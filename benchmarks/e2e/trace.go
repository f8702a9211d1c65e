package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/xtc"
)

// level is the seam a span was recorded at, outermost first. Call chains
// may skip levels (core.Ingest goes straight to the cluster seam), but a
// span's parent is always at a shallower level.
type level int8

const (
	lvRoot    level = iota // a call the harness makes into vmd/core/stream
	lvHandle               // serve.Handle.ReadFrameAt
	lvSource               // the FrameSource serve decodes from (core)
	lvCluster              // vfs seam around placement.Cluster
	lvPool                 // vfs seam around one node's rpc.Pool
	lvNode                 // vfs seam around one node's osfs.FS
)

// Layer names: the module a span's self time is charged to. A root span
// is charged to the module the harness called; inside a LoadADA* call no
// seam separates vmd from core, so there the vmd row holds both.
const (
	layerVMD       = "vmd"
	layerServe     = "serve"
	layerCore      = "core" // includes plfs: core takes a concrete *plfs.FS, so no seam separates them
	layerStream    = "stream"
	layerPlacement = "placement"
	layerRPC       = "rpc"
	layerOSFS      = "osfs"
	layerPLFS      = "plfs"    // the plfs probe's direct calls only
	layerHarness   = "harness" // the benchmark's own output checks inside a timed call
)

var layerOrder = []string{layerVMD, layerServe, layerStream, layerCore, layerPLFS, layerPlacement, layerRPC, layerOSFS, layerHarness}

// span is one timed interval at a seam. Times are nanoseconds since the
// recorder's epoch. stack and node restrict which spans may be its parent;
// -1 means unknown (a node-seam span cannot tell which client called).
type span struct {
	layer      string
	op         string
	lv         level
	stack      int8
	node       int8
	rep        int32 // round the request belongs to (roots; inherited below)
	key        int32 // frame or batch number, -1 when the call has none
	start, end int64
	bytes      int64

	// Filled by resolve.
	parent       int32
	root         int32
	covered      int64 // part of [start,end] its children cover
	coveredUntil int64
}

func (s *span) dur() int64  { return s.end - s.start }
func (s *span) self() int64 { return s.dur() - s.covered }

// recorder keeps spans in memory; nothing is written until the workload
// ends. A nil *recorder is valid and records nothing, which is how the
// untraced pass runs the same harness code.
type recorder struct {
	epoch time.Time
	rep   atomic.Int32

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// reset drops what the warm-up round recorded.
func (r *recorder) reset() {
	r.mu.Lock()
	r.spans = r.spans[:0]
	r.mu.Unlock()
}

func (r *recorder) add(s span) {
	s.end = r.now()
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// root times fn as a harness-level call into layer. It returns fn's wall
// time either way; the span is kept only when tracing.
func (r *recorder) root(layer, op string, stack int8, key int, fn func() error) (time.Duration, error) {
	t0 := time.Now()
	var s span
	if r != nil {
		s = span{layer: layer, op: op, lv: lvRoot, stack: stack, node: -1,
			rep: r.rep.Load(), key: int32(key), start: r.now()}
	}
	err := fn()
	if r != nil {
		r.add(s)
	}
	return time.Since(t0), err
}

// ---- vfs seams ----

// tracedFS records one span per vfs call made through it.
type tracedFS struct {
	fs    vfs.FS
	rec   *recorder
	layer string
	lv    level
	stack int8
	node  int8
}

type watcher interface {
	WatchFile(name string, lastCRC uint32, timeout time.Duration) ([]byte, uint32, bool, error)
}

// tracedWatchFS adds the long-poll method plfs and placement look for by
// type assertion, so wrapping a Pool or a Cluster keeps server-side watches.
type tracedWatchFS struct {
	*tracedFS
	w watcher
}

func (t tracedWatchFS) WatchFile(name string, lastCRC uint32, timeout time.Duration) ([]byte, uint32, bool, error) {
	s := t.begin("watch")
	data, crc, changed, err := t.w.WatchFile(name, lastCRC, timeout)
	s.bytes = int64(len(data))
	t.rec.add(s)
	return data, crc, changed, err
}

// traceFS wraps fsys at a seam, or returns it untouched when not tracing.
func traceFS(fsys vfs.FS, rec *recorder, layer string, lv level, stack, node int) vfs.FS {
	if rec == nil {
		return fsys
	}
	t := &tracedFS{fs: fsys, rec: rec, layer: layer, lv: lv, stack: int8(stack), node: int8(node)}
	if w, ok := fsys.(watcher); ok {
		return tracedWatchFS{t, w}
	}
	return t
}

func (t *tracedFS) begin(op string) span {
	return span{layer: t.layer, op: op, lv: t.lv, stack: t.stack, node: t.node,
		rep: -1, key: -1, start: t.rec.now()}
}

func (t *tracedFS) file(f vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: f, t: t}, nil
}

func (t *tracedFS) Create(name string) (vfs.File, error) {
	s := t.begin("create")
	f, err := t.fs.Create(name)
	t.rec.add(s)
	return t.file(f, err)
}

func (t *tracedFS) Open(name string) (vfs.File, error) {
	s := t.begin("open")
	f, err := t.fs.Open(name)
	t.rec.add(s)
	return t.file(f, err)
}

func (t *tracedFS) Stat(name string) (vfs.FileInfo, error) {
	s := t.begin("stat")
	info, err := t.fs.Stat(name)
	t.rec.add(s)
	return info, err
}

func (t *tracedFS) ReadDir(name string) ([]vfs.FileInfo, error) {
	s := t.begin("readdir")
	infos, err := t.fs.ReadDir(name)
	t.rec.add(s)
	return infos, err
}

func (t *tracedFS) MkdirAll(name string) error {
	s := t.begin("mkdirall")
	err := t.fs.MkdirAll(name)
	t.rec.add(s)
	return err
}

func (t *tracedFS) Remove(name string) error {
	s := t.begin("remove")
	err := t.fs.Remove(name)
	t.rec.add(s)
	return err
}

func (t *tracedFS) Rename(oldname, newname string) error {
	s := t.begin("rename")
	err := t.fs.Rename(oldname, newname)
	t.rec.add(s)
	return err
}

type tracedFile struct {
	vfs.File
	t *tracedFS
}

func (f *tracedFile) Read(p []byte) (int, error) {
	s := f.t.begin("read")
	n, err := f.File.Read(p)
	s.bytes = int64(n)
	f.t.rec.add(s)
	return n, err
}

func (f *tracedFile) ReadAt(p []byte, off int64) (int, error) {
	s := f.t.begin("read")
	n, err := f.File.ReadAt(p, off)
	s.bytes = int64(n)
	f.t.rec.add(s)
	return n, err
}

func (f *tracedFile) Write(p []byte) (int, error) {
	s := f.t.begin("write")
	n, err := f.File.Write(p)
	s.bytes = int64(n)
	f.t.rec.add(s)
	return n, err
}

func (f *tracedFile) Close() error {
	s := f.t.begin("close")
	err := f.File.Close()
	f.t.rec.add(s)
	return err
}

func (f *tracedFile) Size() int64 {
	s := f.t.begin("size")
	n := f.File.Size()
	f.t.rec.add(s)
	return n
}

// ---- frame-source seams ----

// frameSource is what serve decodes from and what vmd plays through.
type frameSource interface {
	Frames() int
	ReadFrameAt(i int) (*xtc.Frame, error)
}

// tracedSource sits between serve and core. It forwards the two marker
// methods serve looks for so a wrapped source keeps its concurrency and
// liveness.
type tracedSource struct {
	src   frameSource
	rec   *recorder
	stack int8
}

func traceSource(src frameSource, rec *recorder, stack int) frameSource {
	if rec == nil {
		return src
	}
	return &tracedSource{src: src, rec: rec, stack: int8(stack)}
}

func (t *tracedSource) Frames() int { return t.src.Frames() }

func (t *tracedSource) ReadFrameAt(i int) (*xtc.Frame, error) {
	s := span{layer: layerCore, op: "ReadFrameAt", lv: lvSource, stack: t.stack, node: -1,
		rep: -1, key: int32(i), start: t.rec.now()}
	fr, err := t.src.ReadFrameAt(i)
	t.rec.add(s)
	return fr, err
}

func (t *tracedSource) ConcurrentFrameReads() bool {
	c, ok := t.src.(interface{ ConcurrentFrameReads() bool })
	return ok && c.ConcurrentFrameReads()
}

func (t *tracedSource) Live() bool {
	l, ok := t.src.(interface{ Live() bool })
	return ok && l.Live()
}

// ---- resolving the tree ----

// resolve gives every span a parent and the share of its interval its
// children cover. No identifier crosses the vfs interface or the wire, so
// parents are found by containment: the innermost span at a shallower
// level, on a compatible stack and node, whose interval contains the
// child's. Where two callers overlap (two viewers, two decode workers) a
// parent that has no assigned child overlapping this one is preferred, as
// one goroutine cannot have two calls open at a seam; which of two
// equivalent parents gets a child does not change any layer's total.
func (r *recorder) resolve() []span {
	r.mu.Lock()
	spans := r.spans
	r.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].start != spans[j].start {
			return spans[i].start < spans[j].start
		}
		return spans[i].lv < spans[j].lv
	})
	var open []int32 // spans that may still contain a later one
	for i := range spans {
		s := &spans[i]
		s.parent, s.root = -1, int32(i)
		keep := open[:0]
		best := int32(-1)
		for _, ci := range open {
			c := &spans[ci]
			if c.end < s.start {
				continue // closed for good: spans arrive in start order
			}
			keep = append(keep, ci)
			if c.lv >= s.lv || c.end < s.end ||
				(c.stack >= 0 && s.stack >= 0 && c.stack != s.stack) ||
				(c.node >= 0 && s.node >= 0 && c.node != s.node) ||
				(c.lv == lvHandle && s.lv == lvSource && c.key != s.key) {
				continue
			}
			if best < 0 || better(c, &spans[best], s) {
				best = ci
			}
		}
		open = append(keep, int32(i))
		if best < 0 {
			continue
		}
		p := &spans[best]
		s.parent, s.root = best, p.root
		if s.rep < 0 {
			s.rep = p.rep
		}
		if s.key < 0 {
			s.key = p.key
		}
		if s.stack < 0 {
			s.stack = p.stack
		}
		from, to := s.start, s.end
		if from < p.coveredUntil {
			from = p.coveredUntil
		}
		if to > from {
			p.covered += to - from
			p.coveredUntil = to
		}
	}
	return spans
}

// better reports whether candidate parent a beats b for child s: deeper
// level first, then one whose earlier children do not overlap s, then the
// one that started last.
func better(a, b, s *span) bool {
	if a.lv != b.lv {
		return a.lv > b.lv
	}
	aFree, bFree := a.coveredUntil <= s.start, b.coveredUntil <= s.start
	if aFree != bFree {
		return aFree
	}
	return a.start > b.start
}

// ---- output ----

// path returns the span's stack of "layer/op" names, root first.
func path(spans []span, i int32) []string {
	var rev []string
	for ; i >= 0; i = spans[i].parent {
		rev = append(rev, spans[i].layer+"/"+spans[i].op)
	}
	for a, b := 0, len(rev)-1; a < b; a, b = a+1, b-1 {
		rev[a], rev[b] = rev[b], rev[a]
	}
	return rev
}

// writeTrace writes the resolved spans as JSON and their self times as
// folded stacks, in the text format sim.Profile.Folded gives the Fig 8
// experiment.
func writeTrace(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(fmt.Sprintf("%s/%s.trace.json", dir, workload))
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"workload\":%q,\"unit\":\"ns\",\"spans\":[\n", workload)
	prof := sim.NewProfile()
	for i := range spans {
		s := &spans[i]
		sep := ","
		if i == len(spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, "{\"id\":%d,\"name\":\"%s/%s\",\"start\":%d,\"end\":%d,\"parent\":%d,"+
			"\"req\":{\"rep\":%d,\"key\":%d},\"stack\":%d,\"node\":%d,\"bytes\":%d,\"self\":%d}%s\n",
			i, s.layer, s.op, s.start, s.end, s.parent, s.rep, s.key, s.stack, s.node, s.bytes, s.self(), sep)
		if self := s.self(); self > 0 {
			prof.Add(strings.Join(path(spans, int32(i)), "."), float64(self)/1e9)
		}
	}
	fmt.Fprintln(w, "]}")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.WriteFile(fmt.Sprintf("%s/%s.folded.txt", dir, workload), []byte(prof.Folded(workload)), 0o644)
}
