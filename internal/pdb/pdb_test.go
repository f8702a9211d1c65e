package pdb

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

const samplePDB = `TITLE     CB1-LIKE TEST SYSTEM
REMARK    generated for tests
CRYST1   80.000   80.000   80.000  90.00  90.00  90.00 P 1           1
ATOM      1  N   ALA A   1      11.104   6.134  -6.504  1.00  0.00           N
ATOM      2  CA  ALA A   1      11.639   6.071  -5.147  1.00  0.00           C
ATOM      3  C   LEU A   2      12.500   7.200  -4.600  1.00  0.00           C
TER
HETATM    4  O   HOH B   1      20.000  20.000  20.000  1.00  0.00           O
HETATM    5  H1  HOH B   1      20.500  20.000  20.000  1.00  0.00           H
ATOM      6  P   POPCC   1      30.000  30.000  30.000  1.00  0.00           P
HETATM    7 NA   SOD D   1     40.000  40.000  40.000  1.00  0.00          NA
HETATM    8  C1  LIG E   1     50.000  50.000  50.000  1.00  0.00           C
END
ATOM      9  N   GLY F   1      0.000   0.000   0.000  1.00  0.00           N
`

func TestParseSample(t *testing.T) {
	s, err := Parse(strings.NewReader(samplePDB))
	if err != nil {
		t.Fatal(err)
	}
	if s.Title != "CB1-LIKE TEST SYSTEM" {
		t.Errorf("Title = %q", s.Title)
	}
	if s.NAtoms() != 8 {
		t.Fatalf("NAtoms = %d, want 8 (END must stop parsing)", s.NAtoms())
	}
	wantCats := []Category{Protein, Protein, Protein, Water, Water, Lipid, Ion, Ligand}
	for i, want := range wantCats {
		if got := s.Atoms[i].Category; got != want {
			t.Errorf("atom %d (%s): category = %v, want %v", i, s.Atoms[i].ResName, got, want)
		}
	}
	a := s.Atoms[0]
	if a.Serial != 1 || a.Name != "N" || a.ResName != "ALA" || a.ChainID != 'A' || a.ResSeq != 1 {
		t.Errorf("atom 0 fields = %+v", a)
	}
	if a.X != 11.104 || a.Y != 6.134 || a.Z != -6.504 {
		t.Errorf("atom 0 coords = %v %v %v", a.X, a.Y, a.Z)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		res  string
		het  bool
		want Category
	}{
		{"ALA", false, Protein},
		{"gly", false, Protein},
		{"HOH", true, Water},
		{"SOL", false, Water},
		{"POPC", false, Lipid},
		{"CHL1", false, Lipid},
		{"SOD", true, Ion},
		{"CL-", true, Ion},
		{"XYZ", true, Ligand},
		{"XYZ", false, Other},
		{"  TIP3 ", false, Water},
	}
	for _, c := range cases {
		if got := Classify(c.res, c.het); got != c.want {
			t.Errorf("Classify(%q, het=%v) = %v, want %v", c.res, c.het, got, c.want)
		}
	}
}

func TestCategoryStringRoundTrip(t *testing.T) {
	for c := Protein; c < numCategories; c++ {
		got, err := ParseCategory(c.String())
		if err != nil || got != c {
			t.Errorf("ParseCategory(%q) = %v, %v", c.String(), got, err)
		}
	}
	if _, err := ParseCategory("bogus"); err == nil {
		t.Error("ParseCategory(bogus) should fail")
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	orig := &Structure{
		Title: "ROUNDTRIP",
		Atoms: []Atom{
			{Serial: 1, Name: "N", ResName: "ALA", ChainID: 'A', ResSeq: 1, X: 1.5, Y: -2.25, Z: 3.125, Element: "N", Category: Protein},
			{Serial: 2, Name: "CA", ResName: "ALA", ChainID: 'A', ResSeq: 1, X: 0, Y: 0, Z: 0, Element: "C", Category: Protein},
			{Serial: 3, Name: "O", ResName: "HOH", ChainID: 'B', ResSeq: 2, X: 10, Y: 20, Z: 30, Element: "O", HetAtm: true, Category: Water},
			{Serial: 4, Name: "P", ResName: "POPC", ChainID: 'C', ResSeq: 3, X: -5.5, Y: 6.75, Z: 7, Element: "P", Category: Lipid},
		},
	}
	var buf bytes.Buffer
	if err := Write(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Title != orig.Title {
		t.Errorf("Title = %q", got.Title)
	}
	if got.NAtoms() != orig.NAtoms() {
		t.Fatalf("NAtoms = %d, want %d", got.NAtoms(), orig.NAtoms())
	}
	for i := range orig.Atoms {
		w, g := orig.Atoms[i], got.Atoms[i]
		if g.Name != w.Name || g.ResName != w.ResName || g.ChainID != w.ChainID ||
			g.ResSeq != w.ResSeq || g.Category != w.Category || g.HetAtm != w.HetAtm {
			t.Errorf("atom %d: got %+v, want %+v", i, g, w)
		}
		if g.X != w.X || g.Y != w.Y || g.Z != w.Z {
			t.Errorf("atom %d coords: got (%v,%v,%v), want (%v,%v,%v)",
				i, g.X, g.Y, g.Z, w.X, w.Y, w.Z)
		}
	}
}

func TestWriteParseRoundTripQuick(t *testing.T) {
	resNames := []string{"ALA", "GLY", "HOH", "POPC", "SOD", "LIG"}
	f := func(serial uint16, res uint8, xi, yi, zi int16) bool {
		a := Atom{
			Serial:  int(serial)%99998 + 1,
			Name:    "CA",
			ResName: resNames[int(res)%len(resNames)],
			ChainID: 'A',
			ResSeq:  1,
			// PDB coordinates have 3 decimals in an 8-char field; restrict
			// to exactly representable values within ±499.875.
			X: float64(xi%4000) / 8, Y: float64(yi%4000) / 8, Z: float64(zi%4000) / 8,
			Element: "C",
		}
		a.HetAtm = a.ResName == "LIG"
		a.Category = Classify(a.ResName, a.HetAtm)
		var buf bytes.Buffer
		if err := Write(&buf, &Structure{Atoms: []Atom{a}}); err != nil {
			return false
		}
		got, err := Parse(&buf)
		if err != nil || got.NAtoms() != 1 {
			return false
		}
		g := got.Atoms[0]
		return g.ResName == a.ResName && g.Category == a.Category &&
			g.X == a.X && g.Y == a.Y && g.Z == a.Z
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"ATOM      1  N   ALA A   1      xx.xxx   6.134  -6.504",
		"ATOM      b  N   ALA A   1      11.104   6.134  -6.504",
		"ATOM      1  N   ALA A   x      11.104   6.134  -6.504",
		"ATOM      1  N   ALA A   1      11.104",
	}
	for _, line := range bad {
		if _, err := Parse(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("Parse(%q) should fail", line)
		}
	}
}

func TestParseSkipsShortAndUnknownLines(t *testing.T) {
	in := "X\n\nJUNKRECORD blah\nATOM      1  N   ALA A   1      11.104   6.134  -6.504  1.00  0.00           N\n"
	s, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if s.NAtoms() != 1 {
		t.Errorf("NAtoms = %d, want 1", s.NAtoms())
	}
}

func TestCategoryCounts(t *testing.T) {
	s, err := Parse(strings.NewReader(samplePDB))
	if err != nil {
		t.Fatal(err)
	}
	counts := s.CategoryCounts()
	want := map[Category]int{Protein: 3, Water: 2, Lipid: 1, Ion: 1, Ligand: 1}
	for c, n := range want {
		if counts[c] != n {
			t.Errorf("count[%v] = %d, want %d", c, counts[c], n)
		}
	}
}

// TestParseAllocationsDoNotGrowWithAtoms: a sized reader's structure takes
// one Atoms allocation and one string per distinct name, so parsing 10 000
// atoms allocates about what parsing 100 does, and equal names share one
// string.
func TestParseAllocationsDoNotGrowWithAtoms(t *testing.T) {
	text := func(n int) string {
		var buf bytes.Buffer
		if err := Write(&buf, benchStructure(n)); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	small, large := text(100), text(10000)
	allocs := func(in string) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := Parse(strings.NewReader(in)); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := allocs(small), allocs(large); b > a+4 {
		t.Errorf("parsing 100 atoms allocates %.0f times, 10000 atoms %.0f", a, b)
	}
	s, err := Parse(strings.NewReader(large))
	if err != nil {
		t.Fatal(err)
	}
	if a, b := s.Atoms[0].Name, s.Atoms[len(s.Atoms)-1].Name; a != b || unsafe.StringData(a) != unsafe.StringData(b) {
		t.Errorf("atom names %q and %q are not one interned string", a, b)
	}
}
