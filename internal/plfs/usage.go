package plfs

import (
	"errors"
	"fmt"
	"path"
	"strings"

	"repro/internal/vfs"
)

// Per-backend usage is measured, not kept. UsageOf walks the backend's
// mount each time it is asked and sums the dropping files it finds; the
// store holds no byte counter and charges nothing on the write path. The
// tier planner, the one consumer, asks once per round and once after each
// move, and the walk sees bytes from every writer of the mount — a node's
// clients write through rpc, never through the node's own store.
//
// Only dropping data counts. Container indexes and the ".tmp" siblings the
// atomic-replace protocol stages are bookkeeping, not placed data.

// countedFile reports whether a container file counts as usage.
func countedFile(name string) bool {
	return name != indexFileName && !strings.HasSuffix(name, ".tmp")
}

// UsageOf walks one backend's mount and returns the bytes of dropping data
// on it, publishing them as the plfs.backend.<name>.bytes gauge. A missing
// mount is 0 and a directory that vanishes mid-walk is empty; any other
// error is returned, because a short sum must not pass for the truth.
func (p *FS) UsageOf(backend string) (int64, error) {
	b, ok := p.byName[backend]
	if !ok {
		return 0, fmt.Errorf("plfs: unknown backend %q", backend)
	}
	n, err := usageUnder(b.FS, b.Mount)
	if err != nil {
		return 0, fmt.Errorf("plfs: usage of %s: %w", backend, err)
	}
	p.mu.Lock()
	p.reg.Gauge("plfs.backend." + backend + ".bytes").Set(n)
	p.mu.Unlock()
	return n, nil
}

func usageUnder(fsys vfs.FS, dir string) (int64, error) {
	entries, err := fsys.ReadDir(dir)
	if errors.Is(err, vfs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		if !e.IsDir {
			if countedFile(e.Name) {
				total += e.Size
			}
			continue
		}
		n, err := usageUnder(fsys, path.Join(dir, e.Name))
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}
