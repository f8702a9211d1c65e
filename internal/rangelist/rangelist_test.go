package rangelist

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTile(t *testing.T) {
	lists := func(ranges ...Range) []*List {
		var out []*List
		for _, r := range ranges {
			out = append(out, FromRanges(r))
		}
		return out
	}
	for _, tc := range []struct {
		n     int
		lists []*List
		ok    bool
	}{
		{10, lists(Range{4, 10}, Range{0, 4}), true},
		{10, []*List{FromRanges(Range{0, 2}, Range{5, 10}), FromRanges(Range{2, 5})}, true},
		{0, nil, true},
		{10, lists(Range{0, 5}, Range{4, 10}), false}, // overlap
		{10, lists(Range{0, 4}, Range{5, 10}), false}, // gap
		{10, lists(Range{1, 10}), false},              // gap at 0
		{10, lists(Range{0, 9}), false},               // short of n
		{9, lists(Range{0, 4}, Range{4, 10}), false},  // past n
		{-1, nil, false},
	} {
		if err := Tile(tc.n, tc.lists...); (err == nil) != tc.ok {
			t.Errorf("Tile(%d, %v): %v, want ok %v", tc.n, tc.lists, err, tc.ok)
		}
	}
}

func TestAddMerging(t *testing.T) {
	l := New()
	l.Add(5, 10)
	l.Add(20, 30)
	l.Add(10, 15) // touches first
	if got := l.String(); got != "5-15,20-30" {
		t.Errorf("after touch-merge: %s", got)
	}
	l.Add(12, 22) // bridges both
	if got := l.String(); got != "5-30" {
		t.Errorf("after bridge: %s", got)
	}
	l.Add(0, 2)
	l.Add(40, 41)
	if got := l.String(); got != "0-2,5-30,40-41" {
		t.Errorf("final: %s", got)
	}
	if l.Count() != 2+25+1 {
		t.Errorf("Count = %d", l.Count())
	}
}

func TestAddIgnoresEmpty(t *testing.T) {
	l := New()
	l.Add(5, 5)
	l.Add(7, 3)
	if l.NumRanges() != 0 {
		t.Errorf("NumRanges = %d, want 0", l.NumRanges())
	}
}

func TestAppend(t *testing.T) {
	l := New()
	l.Append(0, 3)
	l.Append(3, 6) // contiguous — extends
	l.Append(9, 12)
	if got := l.String(); got != "0-6,9-12" {
		t.Errorf("got %s", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-order Append should panic")
		}
	}()
	l.Append(1, 2)
}

func TestContains(t *testing.T) {
	l := FromRanges(Range{2, 5}, Range{8, 10})
	for _, c := range []struct {
		i    int
		want bool
	}{{1, false}, {2, true}, {4, true}, {5, false}, {8, true}, {9, true}, {10, false}} {
		if got := l.Contains(c.i); got != c.want {
			t.Errorf("Contains(%d) = %v", c.i, got)
		}
	}
}

func TestIndicesAndEach(t *testing.T) {
	l := FromRanges(Range{1, 3}, Range{7, 9})
	want := []int{1, 2, 7, 8}
	got := l.Indices()
	if len(got) != len(want) {
		t.Fatalf("Indices = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Indices = %v, want %v", got, want)
		}
	}
	var walked []int
	l.Each(func(i int) bool {
		walked = append(walked, i)
		return i != 7 // stop after 7
	})
	if len(walked) != 3 || walked[2] != 7 {
		t.Errorf("Each walked %v", walked)
	}
}

func TestIntersectUnionComplement(t *testing.T) {
	a := FromRanges(Range{0, 10}, Range{20, 30})
	b := FromRanges(Range{5, 25})
	if got := a.Intersect(b).String(); got != "5-10,20-25" {
		t.Errorf("Intersect = %s", got)
	}
	if got := a.Union(b).String(); got != "0-30" {
		t.Errorf("Union = %s", got)
	}
	if got := a.Complement(35).String(); got != "10-20,30-35" {
		t.Errorf("Complement = %s", got)
	}
	if got := New().Complement(3).String(); got != "0-3" {
		t.Errorf("empty Complement = %s", got)
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	l := FromRanges(Range{0, 5}, Range{100, 250}, Range{999, 1000})
	got, err := Parse(l.String())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(l) {
		t.Errorf("round trip: %s != %s", got, l)
	}
	empty, err := Parse("")
	if err != nil || empty.NumRanges() != 0 {
		t.Errorf("Parse empty: %v, %v", empty, err)
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{"5", "a-b", "5-", "-5", "9-3", "1-2,x-y"} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
	}
}

// membership is the reference model: a plain boolean set.
type membership map[int]bool

func (m membership) toList() *List {
	l := New()
	for i := 0; i < 2000; i++ {
		if m[i] {
			j := i
			for j < 2000 && m[j] {
				j++
			}
			l.Append(i, j)
			i = j
		}
	}
	return l
}

func TestQuickAgainstSetModel(t *testing.T) {
	f := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		set := membership{}
		l := New()
		for k := 0; k < int(nOps)%20+1; k++ {
			lo := rng.Intn(1000)
			hi := lo + rng.Intn(100)
			l.Add(lo, hi)
			for i := lo; i < hi; i++ {
				set[i] = true
			}
		}
		// Same membership everywhere.
		for i := 0; i < 1100; i++ {
			if l.Contains(i) != set[i] {
				return false
			}
		}
		// Normalized representation matches the model's canonical list.
		return l.Equal(set.toList()) && l.Count() == len(set)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickIntersectComplement(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		build := func() *List {
			l := New()
			for k := 0; k < rng.Intn(8); k++ {
				lo := rng.Intn(500)
				l.Add(lo, lo+rng.Intn(80))
			}
			return l
		}
		a, b := build(), build()
		inter := a.Intersect(b)
		union := a.Union(b)
		for i := 0; i < 600; i++ {
			if inter.Contains(i) != (a.Contains(i) && b.Contains(i)) {
				return false
			}
			if union.Contains(i) != (a.Contains(i) || b.Contains(i)) {
				return false
			}
		}
		// Complement is an involution over [0, 600).
		if !a.Complement(600).Complement(600).Equal(a) && a.Count() > 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestAddAllocatesLinearly: a list built range by range, in descending
// order so every range lands at the front, allocates in proportion to its
// length — a label file or manifest is parsed this way, and its bytes come
// from outside.
func TestAddAllocatesLinearly(t *testing.T) {
	const n = 2000
	allocs := testing.AllocsPerRun(3, func() {
		l := New()
		for k := n; k > 0; k-- {
			l.Add(3*k, 3*k+1)
		}
		if l.NumRanges() != n {
			t.Fatalf("%d ranges, want %d", l.NumRanges(), n)
		}
	})
	if allocs > 64 {
		t.Errorf("building %d ranges took %.0f allocations", n, allocs)
	}
	l := New()
	for _, r := range []Range{{6, 7}, {0, 1}, {3, 4}, {1, 3}, {8, 9}, {4, 8}} {
		l.Add(r.Begin, r.End)
	}
	if got := l.String(); got != "0-9" {
		t.Errorf("merged list = %s, want 0-9", got)
	}
}
