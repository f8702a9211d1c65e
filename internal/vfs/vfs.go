// Package vfs defines the POSIX-like file-system interface every storage
// layer in this repository implements — the in-memory store, the
// device-timed local file systems (ext4/XFS stand-ins), the striped
// parallel file system, and the PLFS container layer — plus an in-memory
// reference implementation.
//
// Paths are slash-separated and rooted at "/"; they are cleaned on entry so
// "a//b/./c" and "/a/b/c" refer to the same file.
package vfs

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"path"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Errors returned by FS implementations.
var (
	ErrNotExist = errors.New("vfs: file does not exist")
	ErrExist    = errors.New("vfs: file already exists")
	ErrIsDir    = errors.New("vfs: is a directory")
	ErrNotDir   = errors.New("vfs: not a directory")
	ErrClosed   = errors.New("vfs: file already closed")
	// ErrBackendDown marks a backend whose transport is gone: the remote
	// storage node is unreachable or stopped responding within its retry
	// budget. Every layer passes it up wrapped; a placement.Cluster is the
	// one layer that remembers it, to read from the other replicas first.
	ErrBackendDown = errors.New("vfs: backend down")
	// ErrCorrupted marks stored data whose checksum no longer matches what
	// was written: a flipped bit on disk, a torn write, or a truncated
	// dropping. Layers above use it to trigger replica failover or scrub
	// reporting rather than serving bad bytes as valid coordinates.
	ErrCorrupted = errors.New("vfs: data corrupted")
	// ErrNoSpace marks a backend that is out of capacity. Capacity-bounded
	// file systems wrap it from Create/Write so the layers above (plfs
	// dispatch, the tier planner, ingest) can react to a full fast backend —
	// demote cold data or re-place the write — instead of failing opaquely.
	ErrNoSpace = errors.New("vfs: no space left on device")
)

// FileInfo describes a file or directory.
type FileInfo struct {
	Name  string // base name
	Size  int64
	IsDir bool
}

// File is an open file handle.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	io.ReaderAt
	// Size returns the current file size.
	Size() int64
	// Name returns the cleaned absolute path the file was opened with.
	Name() string
}

// FS is the file-system interface ADA's I/O determinator dispatches to.
type FS interface {
	// Create truncates or creates the file for writing (and reading).
	Create(name string) (File, error)
	// Open opens an existing file for reading.
	Open(name string) (File, error)
	// Stat describes a file or directory.
	Stat(name string) (FileInfo, error)
	// ReadDir lists a directory in name order.
	ReadDir(name string) ([]FileInfo, error)
	// MkdirAll creates a directory and any missing parents.
	MkdirAll(name string) error
	// Remove deletes a file or empty directory.
	Remove(name string) error
	// Rename atomically moves oldname to newname. Renaming a file over an
	// existing file replaces it; the parent directory of newname must
	// already exist. Directories move with their whole subtree.
	Rename(oldname, newname string) error
}

// Clean normalizes a path to the canonical rooted form.
func Clean(name string) string {
	if !strings.HasPrefix(name, "/") {
		name = "/" + name
	}
	return path.Clean(name)
}

// ReadFile reads the whole named file.
func ReadFile(fsys FS, name string) ([]byte, error) {
	f, err := fsys.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, f.Size())
	if _, err := io.ReadFull(f, buf); err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, err
	}
	return buf, nil
}

// ReadAtVerified fills p from offset off of f and returns nil only once ok has
// accepted the bytes. A file that holds its bytes in more than one copy (a
// placement replica set) implements the method of the same name and treats a
// copy ok rejects like a copy it could not read, trying the next; for any
// other file the one copy is all there is, and bytes that are short or
// rejected are ErrCorrupted. ok may run once per copy tried.
func ReadAtVerified(f File, p []byte, off int64, ok func([]byte) bool) error {
	if v, is := f.(interface {
		ReadAtVerified(p []byte, off int64, ok func([]byte) bool) error
	}); is {
		return v.ReadAtVerified(p, off, ok)
	}
	n, err := f.ReadAt(p, off)
	if err != nil && err != io.EOF {
		return err
	}
	if n < len(p) || !ok(p) {
		return ErrCorrupted
	}
	return nil
}

// rangeSender is the optional capability of a File to send a byte range of
// itself to a connection without staging it in a buffer of the caller's.
type rangeSender interface {
	CanSendRange(w io.Writer) bool
	SendRange(w io.Writer, off, n int64) (int64, error)
}

// CanSendRange reports whether f sends its bytes to w itself (osfs on Linux:
// sendfile(2) to a TCP connection). A caller that must know how many bytes
// will follow before it sends them — a reply whose length goes ahead of its
// data — asks first, and copies when the answer is no.
func CanSendRange(f File, w io.Writer) bool {
	s, is := f.(rangeSender)
	return is && s.CanSendRange(w)
}

// SendRange writes n bytes of f, from offset off, to w and returns how many
// it wrote: fewer than n, with a nil error, when the file ends first. A file
// that CanSendRange(w) sends them itself; any other is read and written. It
// neither uses nor moves f's own read offset.
func SendRange(f File, w io.Writer, off, n int64) (int64, error) {
	if CanSendRange(f, w) {
		return f.(rangeSender).SendRange(w, off, n)
	}
	return io.Copy(w, io.NewSectionReader(f, off, n))
}

// watchPoll is how often WatchFile re-reads a file it has to poll itself.
const watchPoll = 2 * time.Millisecond

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// WatchFile blocks until the named file's content differs from lastCRC or
// the timeout elapses, then returns the content and its CRC32C with
// changed=true, or (nil, lastCRC, false) when nothing changed in time. A file
// that does not exist reads as nil with CRC 0, so creation, replacement and
// removal all count as changes; a timeout of zero or less is a single check.
// Tailing readers pass the CRC of the head they last saw and wake when a new
// one is published.
//
// A file system with a WatchFile method of its own takes the whole call — an
// rpc client parks one request on its node, a placement cluster fails over
// across replicas; any other is re-read every watchPoll.
func WatchFile(fsys FS, name string, lastCRC uint32, timeout time.Duration) ([]byte, uint32, bool, error) {
	if w, is := fsys.(interface {
		WatchFile(name string, lastCRC uint32, timeout time.Duration) ([]byte, uint32, bool, error)
	}); is {
		return w.WatchFile(name, lastCRC, timeout)
	}
	deadline := time.Now().Add(timeout)
	for {
		data, err := ReadFile(fsys, name)
		if errors.Is(err, ErrNotExist) {
			data, err = nil, nil
		}
		if err != nil {
			return nil, 0, false, err
		}
		if crc := crc32.Checksum(data, castagnoli); crc != lastCRC {
			return data, crc, true, nil
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, lastCRC, false, nil
		}
		time.Sleep(min(remaining, watchPoll))
	}
}

// WriteFile writes data to the named file, creating it.
func WriteFile(fsys FS, name string, data []byte) error {
	if err := fsys.MkdirAll(path.Dir(Clean(name))); err != nil {
		return err
	}
	f, err := fsys.Create(name)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Exists reports whether the named file or directory exists.
func Exists(fsys FS, name string) bool {
	_, err := fsys.Stat(name)
	return err == nil
}

// ReplaceFile atomically replaces the named file with data: the bytes are
// written to a temporary sibling first and renamed into place, so readers
// observe either the old content or the new, never a torn prefix.
func ReplaceFile(fsys FS, name string, data []byte) error {
	name = Clean(name)
	tmp := name + ".tmp"
	if err := WriteFile(fsys, tmp, data); err != nil {
		return err
	}
	if err := fsys.Rename(tmp, name); err != nil {
		fsys.Remove(tmp)
		return err
	}
	return nil
}

// MemFS is a thread-safe in-memory file system.
type MemFS struct {
	mu    sync.RWMutex
	files map[string]*memNode
}

type memNode struct {
	data  []byte
	isDir bool
}

// NewMemFS returns an empty in-memory FS containing only the root.
func NewMemFS() *MemFS {
	return &MemFS{files: map[string]*memNode{"/": {isDir: true}}}
}

var _ FS = (*MemFS)(nil)

func (m *MemFS) parentDirExists(name string) error {
	dir := path.Dir(name)
	n, ok := m.files[dir]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, dir)
	}
	if !n.isDir {
		return fmt.Errorf("%w: %s", ErrNotDir, dir)
	}
	return nil
}

// Create implements FS.
func (m *MemFS) Create(name string) (File, error) {
	name = Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.parentDirExists(name); err != nil {
		return nil, err
	}
	if n, ok := m.files[name]; ok && n.isDir {
		return nil, fmt.Errorf("%w: %s", ErrIsDir, name)
	}
	node := &memNode{}
	m.files[name] = node
	return &memFile{fs: m, name: name, node: node, writable: true}, nil
}

// Open implements FS.
func (m *MemFS) Open(name string) (File, error) {
	name = Clean(name)
	m.mu.RLock()
	defer m.mu.RUnlock()
	n, ok := m.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	if n.isDir {
		return nil, fmt.Errorf("%w: %s", ErrIsDir, name)
	}
	return &memFile{fs: m, name: name, node: n}, nil
}

// Stat implements FS.
func (m *MemFS) Stat(name string) (FileInfo, error) {
	name = Clean(name)
	m.mu.RLock()
	defer m.mu.RUnlock()
	n, ok := m.files[name]
	if !ok {
		return FileInfo{}, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	return FileInfo{Name: path.Base(name), Size: int64(len(n.data)), IsDir: n.isDir}, nil
}

// ReadDir implements FS.
func (m *MemFS) ReadDir(name string) ([]FileInfo, error) {
	name = Clean(name)
	m.mu.RLock()
	defer m.mu.RUnlock()
	n, ok := m.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	if !n.isDir {
		return nil, fmt.Errorf("%w: %s", ErrNotDir, name)
	}
	prefix := name
	if prefix != "/" {
		prefix += "/"
	}
	var out []FileInfo
	for p, node := range m.files {
		if p == name || !strings.HasPrefix(p, prefix) {
			continue
		}
		rest := p[len(prefix):]
		if strings.Contains(rest, "/") {
			continue // deeper entry
		}
		out = append(out, FileInfo{Name: rest, Size: int64(len(node.data)), IsDir: node.isDir})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// MkdirAll implements FS.
func (m *MemFS) MkdirAll(name string) error {
	name = Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	segs := strings.Split(strings.TrimPrefix(name, "/"), "/")
	cur := ""
	for _, s := range segs {
		if s == "" {
			continue
		}
		cur += "/" + s
		if n, ok := m.files[cur]; ok {
			if !n.isDir {
				return fmt.Errorf("%w: %s", ErrNotDir, cur)
			}
			continue
		}
		m.files[cur] = &memNode{isDir: true}
	}
	return nil
}

// Remove implements FS.
func (m *MemFS) Remove(name string) error {
	name = Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.files[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	if n.isDir {
		prefix := name + "/"
		for p := range m.files {
			if strings.HasPrefix(p, prefix) {
				return fmt.Errorf("vfs: directory %s not empty", name)
			}
		}
	}
	delete(m.files, name)
	return nil
}

// Rename implements FS.
func (m *MemFS) Rename(oldname, newname string) error {
	oldname = Clean(oldname)
	newname = Clean(newname)
	m.mu.Lock()
	defer m.mu.Unlock()
	src, ok := m.files[oldname]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, oldname)
	}
	if oldname == newname {
		return nil
	}
	if err := m.parentDirExists(newname); err != nil {
		return err
	}
	if dst, ok := m.files[newname]; ok {
		if src.isDir != dst.isDir {
			if dst.isDir {
				return fmt.Errorf("%w: %s", ErrIsDir, newname)
			}
			return fmt.Errorf("%w: %s", ErrNotDir, newname)
		}
		if dst.isDir {
			prefix := newname + "/"
			for p := range m.files {
				if strings.HasPrefix(p, prefix) {
					return fmt.Errorf("vfs: directory %s not empty", newname)
				}
			}
		}
	}
	if src.isDir {
		if strings.HasPrefix(newname, oldname+"/") {
			return fmt.Errorf("vfs: cannot move %s into itself", oldname)
		}
		prefix := oldname + "/"
		moved := make(map[string]*memNode)
		for p, node := range m.files {
			if strings.HasPrefix(p, prefix) {
				moved[newname+"/"+p[len(prefix):]] = node
				delete(m.files, p)
			}
		}
		for p, node := range moved {
			m.files[p] = node
		}
	}
	delete(m.files, oldname)
	m.files[newname] = src
	return nil
}

// TotalBytes returns the sum of all file sizes (directories excluded).
func (m *MemFS) TotalBytes() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var n int64
	for _, node := range m.files {
		n += int64(len(node.data))
	}
	return n
}

// Walk visits every file (not directory) under root in sorted order.
func Walk(fsys FS, root string, fn func(path string, info FileInfo) error) error {
	root = Clean(root)
	entries, err := fsys.ReadDir(root)
	if err != nil {
		return err
	}
	for _, e := range entries {
		p := path.Join(root, e.Name)
		if e.IsDir {
			if err := Walk(fsys, p, fn); err != nil {
				return err
			}
			continue
		}
		if err := fn(p, e); err != nil {
			return err
		}
	}
	return nil
}

type memFile struct {
	fs       *MemFS
	name     string
	node     *memNode
	off      int64
	writable bool
	closed   atomic.Bool // Close may race a ReadAt on another goroutine
}

func (f *memFile) Name() string { return f.name }

func (f *memFile) Size() int64 {
	f.fs.mu.RLock()
	defer f.fs.mu.RUnlock()
	return int64(len(f.node.data))
}

func (f *memFile) Read(p []byte) (int, error) {
	if f.closed.Load() {
		return 0, ErrClosed
	}
	f.fs.mu.RLock()
	defer f.fs.mu.RUnlock()
	if f.off >= int64(len(f.node.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.node.data[f.off:])
	f.off += int64(n)
	return n, nil
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	if f.closed.Load() {
		return 0, ErrClosed
	}
	f.fs.mu.RLock()
	defer f.fs.mu.RUnlock()
	if off < 0 {
		return 0, fmt.Errorf("vfs: negative offset %d", off)
	}
	if off >= int64(len(f.node.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.node.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	if f.closed.Load() {
		return 0, ErrClosed
	}
	if !f.writable {
		return 0, fmt.Errorf("vfs: %s opened read-only", f.name)
	}
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	// Append-at-offset semantics: extend with zeros if needed. Growth is
	// geometric — an exact-size reallocation here would copy the whole
	// file once per appended frame, turning streaming ingest quadratic.
	end := f.off + int64(len(p))
	if end > int64(len(f.node.data)) {
		if end <= int64(cap(f.node.data)) {
			f.node.data = f.node.data[:end]
		} else {
			newCap := 2 * cap(f.node.data)
			if int64(newCap) < end {
				newCap = int(end)
			}
			grown := make([]byte, end, newCap)
			copy(grown, f.node.data)
			f.node.data = grown
		}
	}
	copy(f.node.data[f.off:], p)
	f.off = end
	return len(p), nil
}

func (f *memFile) Close() error {
	if f.closed.Swap(true) {
		return ErrClosed
	}
	return nil
}
