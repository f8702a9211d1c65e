package plfs

import (
	"fmt"
	"path"

	"repro/internal/vfs"
)

// Cross-backend replacement and the orphan sweep that cleans up after its
// crash points. Together they give the tier migrator a publish primitive
// with the same guarantee the ingest commit protocol has: at every crash
// point, the container index resolves each dropping to exactly one complete
// copy, and anything else on disk is garbage a recovery sweep may delete.

// ReplaceDropping atomically replaces the live dropping dst with the
// already-written dropping src — the publish step of a migration, where src
// is a verified staging copy on the target backend, and of a resumed
// ingest's cut subset prefix, where src shares dst's backend and the
// replace is one rename plus the index rewrite. src and dst may live on
// different backends. The ordering makes every crash point recoverable:
//
//  1. rename src -> dst on src's backend (atomic within that mount);
//  2. rewrite the index to point dst at src's backend — the commit point:
//     readers resolve the new copy from here on;
//  3. remove the now-unreferenced old copy on dst's former backend.
//
// A crash before 2 leaves the index pointing at the untouched old copy
// (the renamed file is an unreferenced orphan); a crash before 3 leaves
// the index pointing at the new copy (the stale file is an orphan with a
// mismatched backend). SweepOrphans disposes of both. Readers holding an
// open handle on the old copy keep reading its bytes, which the migrator
// has verified identical to the new copy's.
func (p *FS) ReplaceDropping(logical, src, dst string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !validName(dst) {
		return fmt.Errorf("plfs: invalid dropping name %q", dst)
	}
	idx, err := p.readIndexLocked(logical)
	if err != nil {
		return err
	}
	srcOwner, dstOwner := "", ""
	for _, d := range idx {
		switch d.Name {
		case src:
			srcOwner = d.Backend
		case dst:
			dstOwner = d.Backend
		}
	}
	if srcOwner == "" {
		return fmt.Errorf("%w: dropping %q in container %q", vfs.ErrNotExist, src, logical)
	}
	b := p.byName[srcOwner]
	dir := containerPath(b, logical)
	if err := b.FS.Rename(path.Join(dir, src), path.Join(dir, dst)); err != nil {
		return fmt.Errorf("plfs: replace dropping %q: %w", dst, err)
	}
	out := make([]Dropping, 0, len(idx))
	for _, d := range idx {
		if d.Name == src || d.Name == dst {
			continue
		}
		out = append(out, d)
	}
	out = append(out, Dropping{Name: dst, Backend: srcOwner})
	if err := p.writeIndexLocked(logical, out); err != nil {
		return err
	}
	// Past the commit point: the old copy is unreferenced. Removing it is
	// cleanup, not correctness — failure here just leaves an orphan for
	// SweepOrphans.
	if dstOwner != "" && dstOwner != srcOwner {
		ob := p.byName[dstOwner]
		ob.FS.Remove(path.Join(containerPath(ob, logical), dst))
	}
	return nil
}

// SweepOrphans reconciles a container's directories against its index and
// removes the debris a crash can leave behind: files no index entry
// references (a torn ReplaceDropping's renamed-but-uncommitted copy, a
// stale copy whose removal never ran, a leftover ".tmp" from an index
// replace) and index entries whose file is gone. It returns the removed
// files as "backend:name" strings. Safe to call on a healthy container —
// it then removes nothing and rewrites nothing.
//
// A leftover index ".tmp" also rewrites the index. On a replicated backend
// the index replace renames replica by replica, so a replace torn between
// them leaves replicas holding different indexes; the rewrite makes them
// one again.
func (p *FS) SweepOrphans(logical string) ([]string, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	idx, err := p.readIndexLocked(logical)
	if err != nil {
		return nil, err
	}
	ref := make(map[string]bool, len(idx))
	for _, d := range idx {
		ref[d.Backend+"\x00"+d.Name] = true
	}
	var removed []string
	changed := false
	for i := range p.backends {
		b := &p.backends[i]
		dir := containerPath(b, logical)
		if gone, err := absent(b, dir); err != nil {
			return removed, fmt.Errorf("plfs: sweep container on %s: %w", b.Name, err)
		} else if gone {
			continue
		}
		entries, err := b.FS.ReadDir(dir)
		if err != nil {
			return removed, fmt.Errorf("plfs: sweep container on %s: %w", b.Name, err)
		}
		for _, e := range entries {
			if e.IsDir {
				continue
			}
			if i == 0 && e.Name == indexFileName {
				continue
			}
			if ref[b.Name+"\x00"+e.Name] {
				continue
			}
			if err := b.FS.Remove(path.Join(dir, e.Name)); err != nil {
				return removed, fmt.Errorf("plfs: sweep orphan %q: %w", e.Name, err)
			}
			changed = changed || i == 0 && e.Name == indexFileName+".tmp"
			removed = append(removed, b.Name+":"+e.Name)
		}
	}
	// Drop dangling entries — the rename half of a torn replace ran but the
	// index write did not, so the old name still resolves and the entry for
	// the staged name points at nothing.
	out := make([]Dropping, 0, len(idx))
	for _, d := range idx {
		b := p.byName[d.Backend]
		gone, err := absent(b, path.Join(containerPath(b, logical), d.Name))
		if err != nil {
			return removed, fmt.Errorf("plfs: sweep entry %q on %s: %w", d.Name, b.Name, err)
		}
		if gone {
			changed = true
			continue
		}
		out = append(out, d)
	}
	if changed {
		if err := p.writeIndexLocked(logical, out); err != nil {
			return removed, err
		}
	}
	return removed, nil
}
