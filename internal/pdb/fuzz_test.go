package pdb_test

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"

	"repro/internal/gpcr"
	"repro/internal/pdb"
)

// allocated reports the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzPDBParse holds the structure parser — ingest and `mol new` hand it the
// user's bytes — to the rule for bytes from outside: no panic, allocation in
// proportion to the input, and a structure or an error wrapping
// pdb.ErrSyntax.
func FuzzPDBParse(f *testing.F) {
	sys, err := gpcr.Scaled(200).Build()
	if err != nil {
		f.Fatal(err)
	}
	var good bytes.Buffer
	if err := pdb.Write(&good, sys.Structure); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	for _, seed := range []string{
		"TITLE",
		"TITLE\nTITLE\nTITLE     X\nEND\n",
		"ATOM",
		"HETATM      1  N   ALA A   1      11.104   6.134",
		"ATOM      1  N   ALA A   1      11.104   6.134  -6.504\nEND",
		"ATOM      1  N   ALA A   1      1e999   6.134  -6.504\n",
		"ATOM  99999999999999999999 ALA A   1      11.104   6.134  -6.504\n",
		"\n\r\nEND\n",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, input []byte) {
		var s *pdb.Structure
		var err error
		got := allocated(func() { s, err = pdb.Parse(bytes.NewReader(input)) })
		// The scanner's 64 KiB buffer, and per line at most one Atom and
		// the strings cut from it, in a slice that grows by doubling.
		if limit := uint64(64*len(input) + 256<<10); got > limit {
			t.Fatalf("parsing %d bytes allocated %d, limit %d", len(input), got, limit)
		}
		if (s == nil) == (err == nil) {
			t.Fatalf("structure %v, err %v: want exactly one", s != nil, err)
		}
		if err != nil && !errors.Is(err, pdb.ErrSyntax) {
			t.Fatalf("untyped error %v", err)
		}
	})
}

// TestParseTitleLinear: a file of TITLE lines joins them in time and memory
// linear in its length; each line used to copy the whole title so far.
func TestParseTitleLinear(t *testing.T) {
	const lines = 20000
	in := strings.Repeat("TITLE     0123456789\n", lines)
	var s *pdb.Structure
	var err error
	got := allocated(func() { s, err = pdb.Parse(strings.NewReader(in)) })
	if err != nil {
		t.Fatal(err)
	}
	if want := lines*11 - 1; len(s.Title) != want {
		t.Fatalf("title is %d bytes, want %d", len(s.Title), want)
	}
	if limit := uint64(8*len(in) + 256<<10); got > limit {
		t.Errorf("parsing %d bytes of TITLE lines allocated %d, limit %d", len(in), got, limit)
	}
}
