// Package placement maps container paths to storage nodes. A versioned
// Table names the cluster's nodes and assigns every container directory
// an ordered replica set of R nodes — explicitly via pins, or by a
// consistent-hash ring for everything unpinned, so new containers spread
// without touching the table. Cluster is a vfs.FS over the node set that
// enforces the layout: writes commit primary-then-mirror across the
// replica set, reads fail over from replica to replica, and Rebalance
// migrates data when the table changes.
//
// The placement key of a path is its parent directory
// (ContainerKey), NOT the full path: every dropping and index file of a
// container colocates on the same replica set, so the container store's
// same-directory renames (staging -> committed) stay node-local and
// atomic. Directories themselves exist on every node — MkdirAll
// broadcasts — only file payloads are placed.
package placement

import (
	"encoding/json"
	"fmt"
	"path"
	"sync"

	"repro/internal/vfs"
)

// Node is one cluster member: a stable name (the placement identity) and
// a dial address (how clients reach it; empty for in-process tests).
type Node struct {
	Name string `json:"name"`
	Addr string `json:"addr,omitempty"`
}

// Table is the versioned cluster layout. It is immutable once validated;
// layout changes install a NEW table with a higher version, which is what
// lets every node reject stale installs (rpc opTablePut) and lets
// rebalancing distinguish "before" from "after".
type Table struct {
	Version     uint64 `json:"version"`
	Replication int    `json:"replication"`
	Nodes       []Node `json:"nodes"`
	// Pins map a container directory (cleaned path) to an explicit
	// ordered replica list, overriding the ring. The first entry is the
	// primary. Lists longer than Replication are truncated at placement
	// time, so a table can carry provenance without changing R.
	Pins map[string][]string `json:"pins,omitempty"`

	ringOnce sync.Once
	ring     *ring
}

// ContainerKey returns the placement key for a path: the parent directory
// of the cleaned path. All files in one directory share a key, and
// therefore a replica set.
func ContainerKey(name string) string { return path.Dir(vfs.Clean(name)) }

// Validate checks the table's internal consistency.
func (t *Table) Validate() error {
	if t.Replication < 1 {
		return fmt.Errorf("placement: replication %d < 1", t.Replication)
	}
	if len(t.Nodes) < t.Replication {
		return fmt.Errorf("placement: %d nodes cannot hold %d replicas", len(t.Nodes), t.Replication)
	}
	seen := make(map[string]bool, len(t.Nodes))
	for i, n := range t.Nodes {
		if n.Name == "" {
			return fmt.Errorf("placement: node %d has no name", i)
		}
		if seen[n.Name] {
			return fmt.Errorf("placement: duplicate node %q", n.Name)
		}
		seen[n.Name] = true
	}
	for dir, pin := range t.Pins {
		if dir != vfs.Clean(dir) {
			return fmt.Errorf("placement: pin key %q is not a cleaned path", dir)
		}
		if len(pin) < t.Replication {
			return fmt.Errorf("placement: pin for %q lists %d nodes, need %d", dir, len(pin), t.Replication)
		}
		pinned := make(map[string]bool, len(pin))
		for _, name := range pin {
			if !seen[name] {
				return fmt.Errorf("placement: pin for %q references unknown node %q", dir, name)
			}
			if pinned[name] {
				return fmt.Errorf("placement: pin for %q repeats node %q", dir, name)
			}
			pinned[name] = true
		}
	}
	return nil
}

// PlaceDir returns the ordered replica set (primary first) for a
// container directory.
func (t *Table) PlaceDir(dir string) []string {
	dir = vfs.Clean(dir)
	if pin, ok := t.Pins[dir]; ok {
		return append([]string(nil), pin[:t.Replication]...)
	}
	t.ringOnce.Do(func() { t.ring = buildRing(t.Nodes) })
	return t.ring.place(dir, t.Replication)
}

// Place returns the ordered replica set for the container holding name
// (see ContainerKey).
func (t *Table) Place(name string) []string { return t.PlaceDir(ContainerKey(name)) }

// NodeAddr returns the dial address of the named node ("" if unknown).
func (t *Table) NodeAddr(name string) string {
	for _, n := range t.Nodes {
		if n.Name == name {
			return n.Addr
		}
	}
	return ""
}

// Marshal renders the table as JSON, the wire and on-disk form served by
// the node metadata endpoint.
func (t *Table) Marshal() ([]byte, error) {
	return json.MarshalIndent(t, "", "  ")
}

// Unmarshal parses and validates a JSON table.
func Unmarshal(data []byte) (*Table, error) {
	t := &Table{}
	if err := json.Unmarshal(data, t); err != nil {
		return nil, fmt.Errorf("placement: parse table: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
