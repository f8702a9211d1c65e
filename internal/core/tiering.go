package core

import (
	"bytes"
	"fmt"
	"strings"

	"repro/internal/vfs"
	"repro/internal/xtc"
)

// Tiering support: the dropping names the tier subsystem keys heat by, and
// the migration executor its planner drives. The executor writes a copy
// under a "staging." name, verifies it whole, and publishes it with an
// atomic index re-point (plfs.ReplaceDropping), so at every kill point the
// container index resolves each dropping to exactly one complete copy and
// recovery sweeps the rest.

// ManifestDropping is the name of a dataset's manifest. The container index
// names it only once the dataset has committed.
const ManifestDropping = droppingManifest

// IndexDropping returns the dropping name of a tagged subset's frame index,
// which MoveSubset relocates together with the payload.
func IndexDropping(tag string) string { return indexPrefix + tag }

// SubsetTag extracts the tag from a subset payload dropping name
// ("subset.<tag>"), reporting false for every other dropping (frame
// indexes, manifests, staged copies).
func SubsetTag(dropping string) (string, bool) {
	if !strings.HasPrefix(dropping, subsetPrefix) {
		return "", false
	}
	return strings.TrimPrefix(dropping, subsetPrefix), true
}

// MoveSubset relocates one tagged subset — payload dropping plus its frame
// index — onto the named backend, safely against concurrent readers and
// crashes. Already-placed droppings are skipped, so the call is idempotent
// and also repairs a half-moved subset (e.g. payload moved, index not).
// It returns the bytes copied.
//
// Per dropping the sequence is: read and verify the source (whole-stream
// CRC32C when the manifest has one), write a staged copy on the target,
// read the copy back and verify it, then publish with an atomic
// plfs.ReplaceDropping. A reader holding the old dropping keeps its handle
// and finishes byte-identically; a reader opening after the publish
// resolves the new copy, which was just verified identical. The manifest's
// placement fields are rewritten last — they are advisory (reads resolve
// through the plfs index), and recovery reconciles them if a crash lands
// before the rewrite.
func (a *ADA) MoveSubset(logical, tag, target string) (int64, error) {
	known := false
	for _, be := range a.containers.Backends() {
		if be == target {
			known = true
			break
		}
	}
	if !known {
		return 0, fmt.Errorf("core: move %s/%s: unknown backend %q", logical, tag, target)
	}
	m, err := a.Manifest(logical)
	if err != nil {
		return 0, err
	}
	info, ok := m.Subsets[tag]
	if !ok {
		return 0, fmt.Errorf("%w: %q in %s (have %v)", ErrUnknownTag, tag, logical, m.Tags())
	}

	var moved int64
	n, err := a.moveDropping(logical, subsetPrefix+tag, target, info.CRC32C)
	if err != nil {
		return moved, err
	}
	moved += n
	if _, err := a.containers.StatDropping(logical, indexPrefix+tag); err == nil {
		n, err := a.moveDropping(logical, indexPrefix+tag, target, m.Checksums[indexPrefix+tag])
		if err != nil {
			return moved, err
		}
		moved += n
	}
	if info.Backend != target || m.Placement[tag] != target {
		info.Backend = target
		m.Subsets[tag] = info
		if m.Placement != nil {
			m.Placement[tag] = target
		}
		if err := a.rewriteManifest(logical, m); err != nil {
			return moved, err
		}
	}
	return moved, nil
}

// moveDropping copies one dropping to the target backend and atomically
// re-points the container index at the copy. Returns zero if the dropping
// already lives there.
func (a *ADA) moveDropping(logical, name, target string, wantCRC uint32) (int64, error) {
	cur, err := a.containers.StatDropping(logical, name)
	if err != nil {
		return 0, err
	}
	if cur.Backend == target {
		return 0, nil
	}
	data, err := a.readDropping(logical, name)
	if err != nil {
		return 0, err
	}
	if wantCRC != 0 && xtc.CRC32C(data) != wantCRC {
		return 0, fmt.Errorf("core: move %s/%s: source fails verification: %w", logical, name, vfs.ErrCorrupted)
	}
	staging := stagingPrefix + "mig." + name
	if err := a.writeDropping(logical, staging, target, data); err != nil {
		return 0, err
	}
	// Read the staged copy back before publishing: a torn or bit-flipped
	// copy must never become the copy the index points at.
	copyBack, err := a.readDropping(logical, staging)
	if err == nil && !bytes.Equal(copyBack, data) {
		err = fmt.Errorf("core: move %s/%s: staged copy diverges from source: %w", logical, name, vfs.ErrCorrupted)
	}
	if err != nil {
		a.containers.RemoveDropping(logical, staging)
		return 0, err
	}
	if err := a.containers.ReplaceDropping(logical, staging, name); err != nil {
		return 0, err
	}
	return int64(len(data)), nil
}

// rewriteManifest atomically replaces a dataset's manifest in place, on the
// manifest's own backend.
func (a *ADA) rewriteManifest(logical string, m *Manifest) error {
	data, err := m.marshal()
	if err != nil {
		return err
	}
	be := a.backendFor(TagProtein)
	if cur, err := a.containers.StatDropping(logical, droppingManifest); err == nil {
		be = cur.Backend
	}
	return a.containers.PutDropping(logical, droppingManifest, be, data)
}

// reconcilePlacement folds the plfs index's authoritative placement back
// into the manifest — the repair for a migration that crashed after its
// atomic publish but before the advisory manifest rewrite. Returns whether
// the manifest changed; an agreeing manifest is left byte-untouched.
func (a *ADA) reconcilePlacement(logical string) (bool, error) {
	m, err := a.Manifest(logical)
	if err != nil {
		return false, err
	}
	idx, err := a.containers.Index(logical)
	if err != nil {
		return false, err
	}
	owner := make(map[string]string, len(idx))
	for _, d := range idx {
		owner[d.Name] = d.Backend
	}
	changed := false
	for tag, info := range m.Subsets {
		be, ok := owner[subsetPrefix+tag]
		if !ok || be == info.Backend {
			continue
		}
		info.Backend = be
		m.Subsets[tag] = info
		if m.Placement != nil {
			m.Placement[tag] = be
		}
		changed = true
	}
	if !changed {
		return false, nil
	}
	return true, a.rewriteManifest(logical, m)
}
