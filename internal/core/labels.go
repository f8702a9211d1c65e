// Package core implements ADA, the application-conscious data acquirer: a
// light-weight file-system middleware that pre-processes molecular-dynamics
// trajectory data on the storage side.
//
// The two halves match the paper's architecture (Fig 4 and Fig 5):
//
//   - The data pre-processor — decompressor, categorizer, and labeler
//     (Algorithm 1) — turns an ingested (.pdb, .xtc) pair into decompressed,
//     tagged data subsets.
//   - The I/O determinator — dispatcher, indexer, and retriever — places
//     each subset on the backend its tag maps to (protein on SSD-backed
//     storage, MISC on HDD-backed storage) through a PLFS-style container,
//     and serves tag-qualified reads.
package core

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/pdb"
	"repro/internal/rangelist"
	"repro/internal/vfs"
)

// Coarse tags from the paper's prototype.
const (
	TagProtein = "p" // active data
	TagMisc    = "m" // inactive (MISC) data
)

// Granularity selects how the categorizer groups a raw dataset.
type Granularity int

const (
	// Coarse produces the paper's two groups: "p" (protein) and "m" (MISC).
	Coarse Granularity = iota
	// Fine produces one group per residue category: "protein", "water",
	// "lipid", "ion", "ligand", "other" (the paper's fine-grained viewing
	// extension in Section 4.1).
	Fine
)

// String implements fmt.Stringer.
func (g Granularity) String() string {
	if g == Fine {
		return "fine"
	}
	return "coarse"
}

// LabelSet is the labeler's output: for every category, the list of atom
// index ranges belonging to it. It is Algorithm 1's `labeler` map with
// half-open ranges over the structure file's atom order.
type LabelSet struct {
	NAtoms     int
	ByCategory [pdb.NumCategories]*rangelist.List
}

// BuildLabels runs the data categorizer + labeler over a parsed structure
// file (Algorithm 1: one sequential scan, emitting a range whenever the
// category changes).
func BuildLabels(s *pdb.Structure) *LabelSet {
	ls := &LabelSet{NAtoms: s.NAtoms()}
	for c := range ls.ByCategory {
		ls.ByCategory[c] = rangelist.New()
	}
	begin := 0
	var prev pdb.Category
	for i, a := range s.Atoms {
		if i == 0 {
			prev = a.Category
			continue
		}
		if a.Category != prev {
			ls.ByCategory[prev].Append(begin, i)
			begin = i
			prev = a.Category
		}
	}
	if s.NAtoms() > 0 {
		ls.ByCategory[prev].Append(begin, s.NAtoms())
	}
	return ls
}

// CategoryRanges returns the range list for one category.
func (ls *LabelSet) CategoryRanges(c pdb.Category) *rangelist.List {
	return ls.ByCategory[c]
}

// TagRanges groups the label set at the requested granularity, returning
// tag -> atom ranges. Tags with no atoms are omitted.
func (ls *LabelSet) TagRanges(g Granularity) map[string]*rangelist.List {
	out := map[string]*rangelist.List{}
	switch g {
	case Fine:
		for c := pdb.Protein; int(c) < pdb.NumCategories; c++ {
			if l := ls.ByCategory[c]; l.Count() > 0 {
				out[c.String()] = l
			}
		}
	default:
		p := ls.ByCategory[pdb.Protein]
		if p.Count() > 0 {
			out[TagProtein] = p
		}
		m := p.Complement(ls.NAtoms)
		if m.Count() > 0 {
			out[TagMisc] = m
		}
	}
	return out
}

// Tags returns the sorted tag names present at a granularity.
func (ls *LabelSet) Tags(g Granularity) []string {
	m := ls.TagRanges(g)
	tags := make([]string, 0, len(m))
	for t := range m {
		tags = append(tags, t)
	}
	sort.Strings(tags)
	return tags
}

// labelFile is the serialized form (the paper's label_file).
type labelFile struct {
	NAtoms int               `json:"natoms"`
	Ranges map[string]string `json:"ranges"` // category name -> "a-b,c-d"
}

// Marshal serializes the label set for storage as a container dropping.
func (ls *LabelSet) Marshal() ([]byte, error) {
	lf := labelFile{NAtoms: ls.NAtoms, Ranges: map[string]string{}}
	for c := pdb.Protein; int(c) < pdb.NumCategories; c++ {
		if l := ls.ByCategory[c]; l.Count() > 0 {
			lf.Ranges[c.String()] = l.String()
		}
	}
	return json.MarshalIndent(lf, "", "  ")
}

// UnmarshalLabels reads a serialized label set back.
func UnmarshalLabels(data []byte) (*LabelSet, error) {
	var lf labelFile
	if err := json.Unmarshal(data, &lf); err != nil {
		return nil, fmt.Errorf("core: parse label file: %w", err)
	}
	ls := &LabelSet{NAtoms: lf.NAtoms}
	for c := range ls.ByCategory {
		ls.ByCategory[c] = rangelist.New()
	}
	for name, ranges := range lf.Ranges {
		cat, err := pdb.ParseCategory(name)
		if err != nil {
			return nil, fmt.Errorf("core: label file: %w: %w", err, vfs.ErrCorrupted)
		}
		l, err := rangelist.Parse(ranges)
		if err != nil {
			return nil, fmt.Errorf("core: label file category %s: %w: %w", name, err, vfs.ErrCorrupted)
		}
		ls.ByCategory[cat] = l
	}
	total := 0
	for _, l := range ls.ByCategory {
		total += l.Count()
	}
	if total != lf.NAtoms {
		return nil, fmt.Errorf("core: label file covers %d atoms, header says %d: %w", total, lf.NAtoms, vfs.ErrCorrupted)
	}
	return ls, nil
}
