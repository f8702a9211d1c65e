package core

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/pdb"
	"repro/internal/rangelist"
)

// Schema is the dynamic categorizing-and-labeling interface the paper's
// conclusion proposes as future work: instead of the built-in
// protein/MISC split, a user describes the structure of their raw data in
// a configuration file — which residues, elements, or built-in categories
// map to which tag, and where each tag should be placed.
//
// Rules are evaluated first-match-wins; atoms matching no rule get
// DefaultTag.
type Schema struct {
	Name       string            `json:"name"`
	Rules      []Rule            `json:"rules"`
	DefaultTag string            `json:"default_tag"`
	Placement  map[string]string `json:"placement,omitempty"` // tag -> backend
}

// Rule matches atoms to a tag. Every non-empty condition must hold
// (conjunction); within a list condition any entry may match (disjunction).
type Rule struct {
	Tag        string   `json:"tag"`
	Residues   []string `json:"residues,omitempty"`   // exact residue names
	Prefixes   []string `json:"prefixes,omitempty"`   // residue name prefixes
	Elements   []string `json:"elements,omitempty"`   // element symbols
	Categories []string `json:"categories,omitempty"` // built-in category names
	HetAtm     *bool    `json:"hetatm,omitempty"`     // HETATM records only / never
}

// ParseSchema reads a schema configuration file.
func ParseSchema(data []byte) (*Schema, error) {
	var s Schema
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("core: parse schema: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// validTag reports whether tag can name a subset: it is part of the dropping
// names subset.<tag> and index.<tag>.
func validTag(tag string) bool { return tag != "" && !strings.ContainsAny(tag, "/\t\n ") }

// Validate checks the schema for usable tags and categories.
func (s *Schema) Validate() error {
	if len(s.Rules) == 0 {
		return fmt.Errorf("core: schema %q has no rules", s.Name)
	}
	if s.DefaultTag == "" {
		return fmt.Errorf("core: schema %q has no default_tag", s.Name)
	}
	seen := map[string]bool{}
	for i, r := range s.Rules {
		if r.Tag == "" {
			return fmt.Errorf("core: schema %q rule %d has no tag", s.Name, i)
		}
		if !validTag(r.Tag) {
			return fmt.Errorf("core: schema %q rule %d: invalid tag %q", s.Name, i, r.Tag)
		}
		if len(r.Residues)+len(r.Prefixes)+len(r.Elements)+len(r.Categories) == 0 && r.HetAtm == nil {
			return fmt.Errorf("core: schema %q rule %d (%s) matches nothing", s.Name, i, r.Tag)
		}
		for _, c := range r.Categories {
			if _, err := pdb.ParseCategory(c); err != nil {
				return fmt.Errorf("core: schema %q rule %d: %w", s.Name, i, err)
			}
		}
		seen[r.Tag] = true
	}
	for tag := range s.Placement {
		if !seen[tag] && tag != s.DefaultTag {
			return fmt.Errorf("core: schema %q places unknown tag %q", s.Name, tag)
		}
	}
	return nil
}

// Marshal serializes the schema.
func (s *Schema) Marshal() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// TagFor returns the tag for one atom.
func (s *Schema) TagFor(a pdb.Atom) string {
	for _, r := range s.Rules {
		if r.matches(a) {
			return r.Tag
		}
	}
	return s.DefaultTag
}

func (r Rule) matches(a pdb.Atom) bool {
	if r.HetAtm != nil && a.HetAtm != *r.HetAtm {
		return false
	}
	res := strings.ToUpper(strings.TrimSpace(a.ResName))
	if len(r.Residues) > 0 && !containsFold(r.Residues, res) {
		return false
	}
	if len(r.Prefixes) > 0 {
		ok := false
		for _, p := range r.Prefixes {
			if strings.HasPrefix(res, strings.ToUpper(p)) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if len(r.Elements) > 0 && !containsFold(r.Elements, strings.ToUpper(strings.TrimSpace(a.Element))) {
		return false
	}
	if len(r.Categories) > 0 {
		ok := false
		for _, c := range r.Categories {
			if cat, err := pdb.ParseCategory(c); err == nil && cat == a.Category {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

func containsFold(list []string, upper string) bool {
	for _, v := range list {
		if strings.ToUpper(strings.TrimSpace(v)) == upper {
			return true
		}
	}
	return false
}

// TagRanges runs the schema's categorizer + labeler over a structure,
// returning tag -> atom index ranges (the schema-driven Algorithm 1).
func (s *Schema) TagRanges(structure *pdb.Structure) map[string]*rangelist.List {
	out := map[string]*rangelist.List{}
	get := func(tag string) *rangelist.List {
		l, ok := out[tag]
		if !ok {
			l = rangelist.New()
			out[tag] = l
		}
		return l
	}
	begin := 0
	prev := ""
	for i, a := range structure.Atoms {
		tag := s.TagFor(a)
		if i == 0 {
			prev = tag
			continue
		}
		if tag != prev {
			get(prev).Append(begin, i)
			begin = i
			prev = tag
		}
	}
	if n := structure.NAtoms(); n > 0 {
		get(prev).Append(begin, n)
	}
	return out
}
