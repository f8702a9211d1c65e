// Package osfs adapts a host directory to the vfs.FS interface, so the CLI
// tools (cmd/adactl, cmd/adanode) can run ADA against real disks rather
// than simulated ones.
//
// All paths are confined to the configured root: escaping via ".." is
// rejected by cleaning against the virtual rooted namespace first.
package osfs

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"

	"repro/internal/vfs"
)

// FS is a vfs.FS rooted at a host directory.
type FS struct {
	root string
}

var _ vfs.FS = (*FS)(nil)

// New returns an FS rooted at dir, creating it if needed.
func New(dir string) (*FS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("osfs: %w", err)
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("osfs: %w", err)
	}
	return &FS{root: abs}, nil
}

// Root returns the host directory.
func (s *FS) Root() string { return s.root }

// hostPath maps a virtual rooted path into the host tree.
func (s *FS) hostPath(name string) string {
	clean := vfs.Clean(name) // always "/"-rooted, ".." resolved
	return filepath.Join(s.root, filepath.FromSlash(clean))
}

func mapErr(err error) error {
	switch {
	case err == nil:
		return nil
	case os.IsNotExist(err):
		return fmt.Errorf("%w: %v", vfs.ErrNotExist, err)
	case os.IsExist(err):
		return fmt.Errorf("%w: %v", vfs.ErrExist, err)
	default:
		return err
	}
}

// Create implements vfs.FS.
func (s *FS) Create(name string) (vfs.File, error) {
	f, err := os.Create(s.hostPath(name))
	if err != nil {
		return nil, mapErr(err)
	}
	return newFile(f, name), nil
}

// Open implements vfs.FS.
func (s *FS) Open(name string) (vfs.File, error) {
	f, err := os.Open(s.hostPath(name))
	if err != nil {
		return nil, mapErr(err)
	}
	info, err := f.Stat()
	if err == nil && info.IsDir() {
		f.Close()
		return nil, fmt.Errorf("%w: %s", vfs.ErrIsDir, name)
	}
	return newFile(f, name), nil
}

// Stat implements vfs.FS.
func (s *FS) Stat(name string) (vfs.FileInfo, error) {
	info, err := os.Stat(s.hostPath(name))
	if err != nil {
		return vfs.FileInfo{}, mapErr(err)
	}
	return vfs.FileInfo{Name: info.Name(), Size: info.Size(), IsDir: info.IsDir()}, nil
}

// ReadDir implements vfs.FS.
func (s *FS) ReadDir(name string) ([]vfs.FileInfo, error) {
	entries, err := os.ReadDir(s.hostPath(name))
	if err != nil {
		if pe, ok := err.(*fs.PathError); ok && pe.Err.Error() == "not a directory" {
			return nil, fmt.Errorf("%w: %s", vfs.ErrNotDir, name)
		}
		return nil, mapErr(err)
	}
	out := make([]vfs.FileInfo, 0, len(entries))
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			continue
		}
		out = append(out, vfs.FileInfo{Name: e.Name(), Size: info.Size(), IsDir: e.IsDir()})
	}
	return out, nil
}

// MkdirAll implements vfs.FS.
func (s *FS) MkdirAll(name string) error {
	return mapErr(os.MkdirAll(s.hostPath(name), 0o755))
}

// Remove implements vfs.FS.
func (s *FS) Remove(name string) error {
	return mapErr(os.Remove(s.hostPath(name)))
}

// Rename implements vfs.FS.
func (s *FS) Rename(oldname, newname string) error {
	return mapErr(os.Rename(s.hostPath(oldname), s.hostPath(newname)))
}

// file adapts *os.File.
type file struct {
	f    *os.File
	name string
	raw  syscall.RawConn // f's descriptor, taken once for SendRange; nil if f has none
}

func newFile(f *os.File, name string) *file {
	raw, _ := f.SyscallConn()
	return &file{f: f, name: vfs.Clean(name), raw: raw}
}

func (f *file) Name() string { return f.name }

func (f *file) Size() int64 {
	info, err := f.f.Stat()
	if err != nil {
		return 0
	}
	return info.Size()
}

func (f *file) Read(p []byte) (int, error)              { return f.f.Read(p) }
func (f *file) ReadAt(p []byte, off int64) (int, error) { return f.f.ReadAt(p, off) }
func (f *file) Write(p []byte) (int, error)             { return f.f.Write(p) }
func (f *file) Close() error                            { return f.f.Close() }
