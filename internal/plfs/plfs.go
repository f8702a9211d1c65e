// Package plfs implements the container layer ADA's I/O dispatcher is built
// on, after PLFS (Bent et al., SC '09): a logical file is represented as a
// container — a same-named directory on every backend mount — holding
// "dropping" files with the actual data plus an index that records which
// backend owns each dropping.
//
// The underlying file systems see ordinary directories and files and never
// know the logical file was decomposed; that transparency is what lets ADA
// steer the protein subset to an SSD-backed file system and the MISC subset
// to an HDD-backed one (Fig 6 of the paper).
package plfs

import (
	"bufio"
	"errors"
	"fmt"
	"path"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/metrics"
	"repro/internal/vfs"
)

// indexFileName is the per-container index dropping. It always lives on the
// first backend (the "canonical" mount).
const indexFileName = ".plfs_index"

// Backend is one mount the container spans.
type Backend struct {
	Name  string // e.g. "ssd", "hdd"
	FS    vfs.FS
	Mount string // path prefix inside FS, e.g. "/mnt1"
}

// Dropping describes one data dropping within a container.
type Dropping struct {
	Name    string // dropping file name, e.g. "subset.p"
	Backend string // owning backend name
	Size    int64
}

// ErrCrossBackend is returned by RenameDropping when the rename would
// shadow a dropping owned by a different backend. A rename is atomic only
// within one backend; pretending otherwise would need a non-atomic delete
// on the other mount whose failure point corrupts the index. Cross-backend
// replacement is ReplaceDropping's job, which orders its steps so every
// crash point is recoverable.
var ErrCrossBackend = errors.New("plfs: cross-backend rename")

// FS is a PLFS-like container store over multiple backends.
type FS struct {
	mu       sync.Mutex
	backends []Backend
	byName   map[string]*Backend
	usage    map[string]int64 // backend name -> bytes of dropping data on disk
	seeded   map[string]bool  // backend name -> usage counter seeded from a walk
	reg      *metrics.Registry
	// bytesGauge caches each backend's usage gauge: the ingest write path
	// updates usage once per frame per subset, and rebuilding the metric
	// name allocates on every call. Reset when reg changes (SetMetrics).
	bytesGauge map[string]*metrics.Gauge
}

// New returns a container store over the given backends. Backend names must
// be unique; the first backend hosts container indexes.
func New(backends ...Backend) (*FS, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("plfs: no backends")
	}
	p := &FS{
		byName: map[string]*Backend{},
		usage:  map[string]int64{},
		seeded: map[string]bool{},
		reg:    metrics.Default,
	}
	for i := range backends {
		b := backends[i]
		if b.FS == nil {
			return nil, fmt.Errorf("plfs: backend %q has no file system", b.Name)
		}
		if _, dup := p.byName[b.Name]; dup {
			return nil, fmt.Errorf("plfs: duplicate backend %q", b.Name)
		}
		b.Mount = vfs.Clean(b.Mount)
		p.backends = append(p.backends, b)
		p.byName[b.Name] = &p.backends[i]
	}
	return p, nil
}

// SetMetrics points the store's dispatch counters at reg (metrics.Default
// by default; nil disables collection). Call before serving traffic.
func (p *FS) SetMetrics(reg *metrics.Registry) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.reg = reg
	p.bytesGauge = nil
	for name, v := range p.usage {
		p.usageGaugeLocked(name).Set(v)
	}
}

// count bumps one dispatch counter, namespaced per backend so the paper's
// SSD-vs-HDD steering is visible at runtime:
//
//	plfs.backend.<name>.droppings_created
//	plfs.backend.<name>.droppings_opened
//	plfs.containers_created / plfs.containers_removed
func (p *FS) count(name string) { p.reg.Counter("plfs." + name).Inc() }

// Backends returns the backend names in configuration order.
func (p *FS) Backends() []string {
	names := make([]string, len(p.backends))
	for i, b := range p.backends {
		names[i] = b.Name
	}
	return names
}

// containerPath returns the container directory for logical on backend b.
func containerPath(b *Backend, logical string) string {
	return path.Join(b.Mount, vfs.Clean(logical))
}

// absent reports whether name does not exist on b. A backend that cannot say
// — its transport is down — is an error, never read as absence: the sweeps
// below delete and unlink on the strength of this answer.
func absent(b *Backend, name string) (bool, error) {
	_, err := b.FS.Stat(name)
	if errors.Is(err, vfs.ErrNotExist) {
		return true, nil
	}
	return false, err
}

// CreateContainer creates the container structure for a logical file on
// every backend (a top-level directory per mount, as in Fig 6).
func (p *FS) CreateContainer(logical string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.backends {
		b := &p.backends[i]
		if err := b.FS.MkdirAll(containerPath(b, logical)); err != nil {
			return fmt.Errorf("plfs: create container on %s: %w", b.Name, err)
		}
	}
	p.count("containers_created")
	return p.writeIndexLocked(logical, nil)
}

// ContainerExists reports whether the logical file has a container.
func (p *FS) ContainerExists(logical string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, err := p.readIndexLocked(logical)
	return err == nil
}

// CreateDropping opens a new dropping for writing on the named backend and
// records it in the container index. The caller must Close the returned
// file before reading it back.
func (p *FS) CreateDropping(logical, dropping, backend string) (vfs.File, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	b, ok := p.byName[backend]
	if !ok {
		return nil, fmt.Errorf("plfs: unknown backend %q", backend)
	}
	idx, err := p.readIndexLocked(logical)
	if err != nil {
		return nil, err
	}
	if strings.ContainsAny(dropping, "/\t\n") || dropping == "" || dropping == indexFileName {
		return nil, fmt.Errorf("plfs: invalid dropping name %q", dropping)
	}
	// Best-effort early full check: capacity-bounded backends (blockfs)
	// expose FreeBytes. Failing here — before the index records the
	// dropping — hands ingest and the tier planner a clean vfs.ErrNoSpace
	// instead of a torn write discovered halfway through the data.
	if fb, ok := b.FS.(interface{ FreeBytes() int64 }); ok && fb.FreeBytes() <= 0 {
		return nil, fmt.Errorf("plfs: create dropping on %s: %w", b.Name, vfs.ErrNoSpace)
	}
	p.ensureUsageLocked(b)
	full := path.Join(containerPath(b, logical), dropping)
	// The index tells us whether Create will truncate an existing file on
	// this backend; only then is a stat needed for the accounting delta.
	var prev int64
	for _, d := range idx {
		if d.Name == dropping && d.Backend == backend {
			prev = statSize(b, logical, dropping)
			break
		}
	}
	f, err := b.FS.Create(full)
	if err != nil {
		return nil, fmt.Errorf("plfs: create dropping: %w", err)
	}
	if prev != 0 {
		p.addUsageLocked(b.Name, -prev) // Create truncated the old content
	}
	// Record (or re-point) the dropping.
	out := idx[:0]
	for _, d := range idx {
		if d.Name != dropping {
			out = append(out, d)
		}
	}
	out = append(out, Dropping{Name: dropping, Backend: backend})
	if err := p.writeIndexLocked(logical, out); err != nil {
		f.Close()
		return nil, err
	}
	p.count("backend." + backend + ".droppings_created")
	return &acctFile{File: f, fs: p, backend: b.Name}, nil
}

// OpenDropping opens an existing dropping for reading, resolving its
// backend through the container index.
func (p *FS) OpenDropping(logical, dropping string) (vfs.File, error) {
	p.mu.Lock()
	idx, err := p.readIndexLocked(logical)
	p.mu.Unlock()
	if err != nil {
		return nil, err
	}
	var owner *Backend
	for _, d := range idx {
		if d.Name == dropping {
			owner = p.byName[d.Backend]
			break
		}
	}
	if owner == nil {
		return nil, fmt.Errorf("%w: dropping %q in container %q", vfs.ErrNotExist, dropping, logical)
	}
	p.count("backend." + owner.Name + ".droppings_opened")
	return owner.FS.Open(path.Join(containerPath(owner, logical), dropping))
}

// StatDropping returns index info plus the current size of a dropping.
func (p *FS) StatDropping(logical, dropping string) (Dropping, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	idx, err := p.readIndexLocked(logical)
	if err != nil {
		return Dropping{}, err
	}
	for _, d := range idx {
		if d.Name != dropping {
			continue
		}
		b := p.byName[d.Backend]
		info, err := b.FS.Stat(path.Join(containerPath(b, logical), dropping))
		if err != nil {
			return Dropping{}, err
		}
		d.Size = info.Size
		return d, nil
	}
	return Dropping{}, fmt.Errorf("%w: dropping %q in container %q", vfs.ErrNotExist, dropping, logical)
}

// Index lists the container's droppings with up-to-date sizes.
func (p *FS) Index(logical string) ([]Dropping, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	idx, err := p.readIndexLocked(logical)
	if err != nil {
		return nil, err
	}
	for i := range idx {
		b, ok := p.byName[idx[i].Backend]
		if !ok {
			return nil, fmt.Errorf("plfs: index references unknown backend %q", idx[i].Backend)
		}
		info, err := b.FS.Stat(path.Join(containerPath(b, logical), idx[i].Name))
		if err == nil {
			idx[i].Size = info.Size
		}
	}
	sort.Slice(idx, func(i, j int) bool { return idx[i].Name < idx[j].Name })
	return idx, nil
}

// ListContainers returns the logical names of every container, discovered
// by walking the canonical backend for index droppings.
func (p *FS) ListContainers() ([]string, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	canon := &p.backends[0]
	if !vfs.Exists(canon.FS, canon.Mount) {
		return nil, nil // no container ever created
	}
	var out []string
	err := vfs.Walk(canon.FS, canon.Mount, func(path string, info vfs.FileInfo) error {
		if info.Name != indexFileName {
			return nil
		}
		dir := path[:len(path)-len("/"+indexFileName)]
		logical := strings.TrimPrefix(dir, strings.TrimSuffix(canon.Mount, "/"))
		if logical == "" {
			logical = "/"
		}
		out = append(out, logical)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("plfs: list containers: %w", err)
	}
	sort.Strings(out)
	return out, nil
}

// RemoveContainer deletes a logical file: every dropping, the index, and
// the container directories. It sweeps the directories themselves rather
// than trusting the index, so it also disposes of torn containers — ones a
// crash left with orphan droppings, a stale index temp file, or no
// readable index at all — which is what crash recovery relies on.
func (p *FS) RemoveContainer(logical string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	found := false
	for i := range p.backends {
		b := &p.backends[i]
		dir := containerPath(b, logical)
		if gone, err := absent(b, dir); err != nil {
			return fmt.Errorf("plfs: remove container on %s: %w", b.Name, err)
		} else if gone {
			continue
		}
		found = true
		p.ensureUsageLocked(b)
		entries, err := b.FS.ReadDir(dir)
		if err != nil {
			return fmt.Errorf("plfs: remove container on %s: %w", b.Name, err)
		}
		for _, e := range entries {
			if e.IsDir {
				return fmt.Errorf("plfs: unexpected directory %q in container %q", e.Name, logical)
			}
			if err := b.FS.Remove(path.Join(dir, e.Name)); err != nil {
				return fmt.Errorf("plfs: remove dropping %q: %w", e.Name, err)
			}
			if countedFile(e.Name) {
				p.addUsageLocked(b.Name, -e.Size)
			}
		}
		if err := b.FS.Remove(dir); err != nil {
			return fmt.Errorf("plfs: remove container dir on %s: %w", b.Name, err)
		}
	}
	if !found {
		return fmt.Errorf("%w: container %q", vfs.ErrNotExist, logical)
	}
	p.count("containers_removed")
	return nil
}

// RenameDropping atomically renames a dropping within its container and
// re-points the index entry — the primitive the crash-consistent commit
// protocol publishes staged droppings with. Renaming over an existing
// dropping replaces it.
func (p *FS) RenameDropping(logical, oldname, newname string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if strings.ContainsAny(newname, "/\t\n") || newname == "" || newname == indexFileName {
		return fmt.Errorf("plfs: invalid dropping name %q", newname)
	}
	idx, err := p.readIndexLocked(logical)
	if err != nil {
		return err
	}
	owner := ""
	for _, d := range idx {
		if d.Name == oldname {
			owner = d.Backend
			break
		}
	}
	if owner == "" {
		return fmt.Errorf("%w: dropping %q in container %q", vfs.ErrNotExist, oldname, logical)
	}
	// Refuse to shadow a dropping on another backend: the rename below is
	// atomic only on owner's mount, and the shadowed file could only be
	// cleaned up by a separate delete whose crash point leaves the index
	// pointing at a removed file. Callers that mean "move across backends"
	// use ReplaceDropping.
	for _, d := range idx {
		if d.Name == newname && d.Backend != owner {
			return fmt.Errorf("%w: %q is on %s but %q is on %s",
				ErrCrossBackend, oldname, owner, newname, d.Backend)
		}
	}
	b := p.byName[owner]
	if b == nil {
		return fmt.Errorf("plfs: index references unknown backend %q", owner)
	}
	dir := containerPath(b, logical)
	p.ensureUsageLocked(b)
	// Cross-backend shadows were rejected above, so an index entry for
	// newname means a same-backend file the rename will overwrite.
	var prev int64
	for _, d := range idx {
		if d.Name == newname {
			prev = statSize(b, logical, newname)
			break
		}
	}
	if err := b.FS.Rename(path.Join(dir, oldname), path.Join(dir, newname)); err != nil {
		return fmt.Errorf("plfs: rename dropping %q: %w", oldname, err)
	}
	if prev != 0 {
		p.addUsageLocked(owner, -prev) // the rename overwrote newname
	}
	out := make([]Dropping, 0, len(idx))
	for _, d := range idx {
		if d.Name == oldname || d.Name == newname {
			continue
		}
		out = append(out, d)
	}
	out = append(out, Dropping{Name: newname, Backend: owner})
	return p.writeIndexLocked(logical, out)
}

// RemoveDropping deletes a single dropping and its index entry. A missing
// file with a live index entry (half-completed crash cleanup) is treated
// as already gone.
func (p *FS) RemoveDropping(logical, dropping string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	idx, err := p.readIndexLocked(logical)
	if err != nil {
		return err
	}
	owner := ""
	out := make([]Dropping, 0, len(idx))
	for _, d := range idx {
		if d.Name == dropping {
			owner = d.Backend
			continue
		}
		out = append(out, d)
	}
	if owner == "" {
		return fmt.Errorf("%w: dropping %q in container %q", vfs.ErrNotExist, dropping, logical)
	}
	b := p.byName[owner]
	if b == nil {
		return fmt.Errorf("plfs: index references unknown backend %q", owner)
	}
	p.ensureUsageLocked(b)
	full := path.Join(containerPath(b, logical), dropping)
	sz := statSize(b, logical, dropping)
	if err := b.FS.Remove(full); err != nil &&
		!errors.Is(err, vfs.ErrNotExist) {
		return fmt.Errorf("plfs: remove dropping %q: %w", dropping, err)
	}
	if sz != 0 {
		p.addUsageLocked(b.Name, -sz)
	}
	return p.writeIndexLocked(logical, out)
}

// The index format is one dropping per line: "<name>\t<backend>".

func (p *FS) indexPath(logical string) string {
	return path.Join(containerPath(&p.backends[0], logical), indexFileName)
}

// writeIndexLocked persists the index atomically: the lines are written to
// a temp sibling and renamed over the index dropping, so a crash mid-write
// can tear the temp file but never the index readers resolve droppings
// through.
func (p *FS) writeIndexLocked(logical string, idx []Dropping) error {
	var sb strings.Builder
	for _, d := range idx {
		fmt.Fprintf(&sb, "%s\t%s\n", d.Name, d.Backend)
	}
	if err := vfs.ReplaceFile(p.backends[0].FS, p.indexPath(logical), []byte(sb.String())); err != nil {
		return fmt.Errorf("plfs: write index for %q: %w", logical, err)
	}
	return nil
}

func (p *FS) readIndexLocked(logical string) ([]Dropping, error) {
	data, err := vfs.ReadFile(p.backends[0].FS, p.indexPath(logical))
	if err != nil {
		return nil, fmt.Errorf("plfs: container %q: %w", logical, err)
	}
	var idx []Dropping
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		parts := strings.Split(text, "\t")
		if len(parts) != 2 {
			return nil, fmt.Errorf("plfs: corrupt index for %q at line %s",
				logical, strconv.Itoa(line))
		}
		idx = append(idx, Dropping{Name: parts[0], Backend: parts[1]})
	}
	return idx, nil
}
