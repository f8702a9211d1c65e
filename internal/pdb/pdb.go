// Package pdb reads and writes Protein Data Bank structure files and
// classifies atoms into the categories ADA's data pre-processor labels:
// protein, water, lipid, ion, and ligand.
//
// Only the record types that matter for trajectory pre-processing are
// implemented: ATOM, HETATM, TER, CRYST1, TITLE, REMARK, and END. Column
// positions follow the PDB 3.3 fixed-width specification.
package pdb

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Category is the coarse classification of an atom's residue.
type Category uint8

// Categories, ordered roughly by how "active" the paper considers them:
// protein is the active data; everything else is MISC.
const (
	Protein Category = iota
	Water
	Lipid
	Ion
	Ligand
	Other
	numCategories
)

// String returns the lower-case category name, which doubles as the
// fine-grained tag in ADA ("protein", "water", ...).
func (c Category) String() string {
	switch c {
	case Protein:
		return "protein"
	case Water:
		return "water"
	case Lipid:
		return "lipid"
	case Ion:
		return "ion"
	case Ligand:
		return "ligand"
	default:
		return "other"
	}
}

// NumCategories is the number of distinct categories.
const NumCategories = int(numCategories)

// ParseCategory maps a name back to its Category.
func ParseCategory(s string) (Category, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "protein":
		return Protein, nil
	case "water":
		return Water, nil
	case "lipid":
		return Lipid, nil
	case "ion":
		return Ion, nil
	case "ligand":
		return Ligand, nil
	case "other":
		return Other, nil
	}
	return Other, fmt.Errorf("pdb: unknown category %q", s)
}

// standard amino acid residue names (plus common variants).
var proteinResidues = map[string]bool{
	"ALA": true, "ARG": true, "ASN": true, "ASP": true, "CYS": true,
	"GLN": true, "GLU": true, "GLY": true, "HIS": true, "ILE": true,
	"LEU": true, "LYS": true, "MET": true, "PHE": true, "PRO": true,
	"SER": true, "THR": true, "TRP": true, "TYR": true, "VAL": true,
	"HSD": true, "HSE": true, "HSP": true, "HID": true, "HIE": true,
	"HIP": true, "CYX": true, "MSE": true,
}

var waterResidues = map[string]bool{
	"HOH": true, "SOL": true, "WAT": true, "TIP": true, "TIP3": true,
	"TIP4": true, "SPC": true, "T3P": true,
}

var lipidResidues = map[string]bool{
	"POPC": true, "POPE": true, "DPPC": true, "DOPC": true, "DMPC": true,
	"CHL1": true, "CHOL": true, "PLPC": true, "POPS": true, "POPG": true,
}

var ionResidues = map[string]bool{
	"NA": true, "CL": true, "K": true, "MG": true, "CA": true, "ZN": true,
	"SOD": true, "CLA": true, "POT": true, "CAL": true, "NA+": true, "CL-": true,
}

// Classify maps a residue name to its Category. Unknown HETATM residues are
// treated as ligands by the caller; unknown ATOM residues fall to Other.
func Classify(resName string, hetatm bool) Category {
	res := strings.ToUpper(strings.TrimSpace(resName))
	switch {
	case proteinResidues[res]:
		return Protein
	case waterResidues[res]:
		return Water
	case lipidResidues[res]:
		return Lipid
	case ionResidues[res]:
		return Ion
	case hetatm:
		return Ligand
	default:
		return Other
	}
}

// Atom is one ATOM or HETATM record.
type Atom struct {
	Serial   int
	Name     string // atom name, e.g. "CA"
	ResName  string // residue name, e.g. "ALA"
	ChainID  byte
	ResSeq   int
	X, Y, Z  float64 // Ångströms
	Element  string
	HetAtm   bool
	Category Category
}

// Structure is a parsed PDB file.
type Structure struct {
	Title string
	Atoms []Atom
}

// NAtoms returns the number of atoms.
func (s *Structure) NAtoms() int { return len(s.Atoms) }

// CategoryCounts returns the number of atoms in each category.
func (s *Structure) CategoryCounts() [NumCategories]int {
	var counts [NumCategories]int
	for _, a := range s.Atoms {
		counts[a.Category]++
	}
	return counts
}

// CategoryOf returns the category of atom index i.
func (s *Structure) CategoryOf(i int) Category { return s.Atoms[i].Category }

// ErrSyntax is what every error Parse returns for malformed input wraps: a
// record whose fields do not parse, or a line longer than maxLine.
var ErrSyntax = errors.New("pdb: syntax error")

// maxLine bounds a line; a PDB record is 80 columns.
const maxLine = 1 << 20

// atomLineBytes is a full ATOM record's length with its newline, a little
// short of it: what Parse sizes Atoms by when r knows its length, so a
// structure file takes one allocation of Atoms, not a doubling series.
const atomLineBytes = 78

// Parse reads a PDB file from r. Records are parsed from the scanner's
// bytes, and the names they carry are interned: a structure holds one
// string per distinct atom, residue and element name, not a line per atom.
func Parse(r io.Reader) (*Structure, error) {
	s := &Structure{}
	if sized, ok := r.(interface{ Len() int }); ok {
		s.Atoms = make([]Atom, 0, sized.Len()/atomLineBytes+1)
	}
	p := parser{names: map[string]string{}}
	var title bytes.Buffer // TITLE lines, each after the first joined by a space
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), maxLine)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := sc.Bytes()
		rec := line
		if len(rec) > 6 {
			rec = rec[:6]
		}
		rec = bytes.TrimRight(rec, " ")
		switch string(rec) {
		case "ATOM", "HETATM":
			a, err := p.atom(line, len(rec) == len("HETATM"))
			if err != nil {
				return nil, fmt.Errorf("%w: line %d: %w", ErrSyntax, lineno, err)
			}
			s.Atoms = append(s.Atoms, a)
		case "TITLE":
			if title.Len() > 0 {
				title.WriteByte(' ')
			}
			title.Write(bytes.TrimSpace(line[len(rec):]))
		case "END", "ENDMDL":
			// Single-model structures only; stop at the first END.
			if len(rec) == len("END") {
				s.Title = title.String()
				return s, nil
			}
		default:
			// TER, CRYST1, REMARK etc. are skipped.
		}
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, fmt.Errorf("%w: line %d is longer than %d bytes", ErrSyntax, lineno+1, maxLine)
		}
		return nil, fmt.Errorf("pdb: %w", err)
	}
	s.Title = title.String()
	return s, nil
}

// parser holds one Parse's interned names.
type parser struct {
	names map[string]string
}

// name returns b as a string, the same one for every equal b.
func (p *parser) name(b []byte) string {
	if s, ok := p.names[string(b)]; ok {
		return s
	}
	s := string(b)
	p.names[s] = s
	return s
}

// field is columns [lo, hi) of line, clipped to it, spaces trimmed.
func field(line []byte, lo, hi int) []byte {
	if len(line) < lo {
		return nil
	}
	if len(line) < hi {
		hi = len(line)
	}
	return bytes.TrimSpace(line[lo:hi])
}

func (p *parser) atom(line []byte, het bool) (Atom, error) {
	var a Atom
	a.HetAtm = het
	var err error
	if s := field(line, 6, 11); len(s) != 0 {
		if a.Serial, err = strconv.Atoi(string(s)); err != nil {
			return a, fmt.Errorf("bad serial %q", s)
		}
	}
	a.Name = p.name(field(line, 12, 16))
	a.ResName = p.name(field(line, 17, 21)) // col 21 tolerated for 4-char lipid names
	if len(line) > 21 && line[21] != ' ' {
		a.ChainID = line[21]
	}
	if s := field(line, 22, 26); len(s) != 0 {
		if a.ResSeq, err = strconv.Atoi(string(s)); err != nil {
			return a, fmt.Errorf("bad residue number %q", s)
		}
	}
	coords := [3]*float64{&a.X, &a.Y, &a.Z}
	cols := [3][2]int{{30, 38}, {38, 46}, {46, 54}}
	for i, c := range cols {
		s := field(line, c[0], c[1])
		if len(s) == 0 {
			return a, fmt.Errorf("missing coordinate %d", i)
		}
		if *coords[i], err = strconv.ParseFloat(string(s), 64); err != nil {
			return a, fmt.Errorf("bad coordinate %q", s)
		}
	}
	a.Element = p.name(field(line, 76, 78))
	a.Category = Classify(a.ResName, het)
	return a, nil
}

// Write emits s as a PDB file.
func Write(w io.Writer, s *Structure) error {
	bw := bufio.NewWriter(w)
	if s.Title != "" {
		fmt.Fprintf(bw, "TITLE     %s\n", s.Title)
	}
	for i, a := range s.Atoms {
		rec := "ATOM  "
		if a.HetAtm {
			rec = "HETATM"
		}
		serial := a.Serial
		if serial == 0 {
			serial = i + 1
		}
		chain := a.ChainID
		if chain == 0 {
			chain = 'A'
		}
		name := a.Name
		// PDB convention: 1-3 char names start at column 14.
		if len(name) < 4 {
			name = " " + name
		}
		fmt.Fprintf(bw, "%s%5d %-4s %-4s%c%4d    %8.3f%8.3f%8.3f%6.2f%6.2f          %2s\n",
			rec, serial%100000, name, a.ResName, chain, a.ResSeq%10000,
			a.X, a.Y, a.Z, 1.0, 0.0, a.Element)
	}
	fmt.Fprintln(bw, "END")
	return bw.Flush()
}
