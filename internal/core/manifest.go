package core

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Manifest records what ADA knows about an ingested dataset; it is stored
// as a container dropping next to the label file so that any later ADA
// instance (or the indexer on a query) can resolve tag reads without
// re-analyzing anything.
type Manifest struct {
	Logical     string            `json:"logical"`
	Granularity string            `json:"granularity"`
	NAtoms      int               `json:"natoms"`
	Frames      int               `json:"frames"`
	Compressed  int64             `json:"compressed_bytes"` // ingested .xtc size
	Raw         int64             `json:"raw_bytes"`        // decompressed size
	Subsets     map[string]Subset `json:"subsets"`          // tag -> subset info
	Placement   map[string]string `json:"placement"`        // tag -> backend
	// Checksums maps every non-subset dropping (structure, labels, stats,
	// indexes) to its CRC32C, closing the integrity loop fsck
	// walks. Subset droppings carry theirs in Subset.CRC32C plus the
	// per-frame set in the v2 index. Empty on pre-checksum datasets.
	Checksums map[string]uint32 `json:"checksums,omitempty"`
}

// Subset describes one tagged data subset.
type Subset struct {
	Tag     string `json:"tag"`
	NAtoms  int    `json:"natoms"`
	Bytes   int64  `json:"bytes"`
	Backend string `json:"backend"`
	Ranges  string `json:"ranges"` // atom index ranges within the full system
	// CRC32C is the whole-stream checksum of the subset dropping (zero on
	// pre-checksum datasets or when checksumming is disabled).
	CRC32C uint32 `json:"crc32c,omitempty"`
}

// Tags returns the manifest's tags sorted by name.
func (m *Manifest) Tags() []string { return sortedKeys(m.Subsets) }

// sortedKeys returns a tag-keyed map's tags sorted by name.
func sortedKeys[V any](m map[string]V) []string {
	tags := make([]string, 0, len(m))
	for t := range m {
		tags = append(tags, t)
	}
	sort.Strings(tags)
	return tags
}

// marshal serializes the manifest.
func (m *Manifest) marshal() ([]byte, error) {
	return json.MarshalIndent(m, "", "  ")
}

// unmarshalManifest parses a stored manifest.
func unmarshalManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("core: parse manifest: %w", err)
	}
	if m.Subsets == nil {
		m.Subsets = map[string]Subset{}
	}
	return &m, nil
}
