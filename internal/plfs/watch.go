package plfs

import (
	"path"
	"time"

	"repro/internal/vfs"
)

// WatchDropping blocks until the dropping's content differs from lastCRC or
// the timeout elapses, then returns the current content and its CRC32C
// (see vfs.WatchFile, which carries the wait on the owning backend). A
// dropping not (yet) in the index is watched on the canonical backend, where
// the live head is always published.
func (p *FS) WatchDropping(logical, dropping string, lastCRC uint32, timeout time.Duration) ([]byte, uint32, bool, error) {
	p.mu.Lock()
	idx, err := p.readIndexLocked(logical)
	p.mu.Unlock()
	if err != nil {
		return nil, 0, false, err
	}
	owner := &p.backends[0]
	for _, d := range idx {
		if d.Name == dropping {
			owner = p.byName[d.Backend]
			break
		}
	}
	return vfs.WatchFile(owner.FS, path.Join(containerPath(owner, logical), dropping), lastCRC, timeout)
}
