// Package rangelist provides ordered sets of half-open integer intervals.
//
// ADA's labeler (Algorithm 1 in the paper) represents each tag's atom
// membership as a list of [begin, end) index ranges over the atom order of
// the structure file. Range lists keep the label file compact — a GPCR
// system has hundreds of thousands of atoms but only a handful of
// contiguous category blocks.
package rangelist

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// ErrSyntax is wrapped by every error Parse returns.
var ErrSyntax = errors.New("rangelist: syntax error")

// Range is a half-open interval [Begin, End).
type Range struct {
	Begin, End int
}

// Len returns the number of integers covered.
func (r Range) Len() int { return r.End - r.Begin }

// Contains reports whether i lies in the range.
func (r Range) Contains(i int) bool { return i >= r.Begin && i < r.End }

// String formats the range as "begin-end".
func (r Range) String() string { return fmt.Sprintf("%d-%d", r.Begin, r.End) }

// List is an ordered, non-overlapping set of ranges.
type List struct {
	ranges []Range
}

// New returns an empty list.
func New() *List { return &List{} }

// FromRanges builds a normalized list from arbitrary ranges.
func FromRanges(rs ...Range) *List {
	l := New()
	for _, r := range rs {
		l.Add(r.Begin, r.End)
	}
	return l
}

// Add inserts [begin, end), merging with adjacent or overlapping ranges.
// Empty or inverted intervals are ignored.
func (l *List) Add(begin, end int) {
	if end <= begin {
		return
	}
	// Find insertion window: all ranges that overlap or touch [begin,end).
	i := sort.Search(len(l.ranges), func(k int) bool { return l.ranges[k].End >= begin })
	j := i
	for j < len(l.ranges) && l.ranges[j].Begin <= end {
		j++
	}
	if i < j {
		if l.ranges[i].Begin < begin {
			begin = l.ranges[i].Begin
		}
		if l.ranges[j-1].End > end {
			end = l.ranges[j-1].End
		}
	}
	// In place: the list grows by at most one range, so building a list
	// range by range allocates in proportion to its length, in any order.
	if i == j {
		l.ranges = slices.Insert(l.ranges, i, Range{begin, end})
		return
	}
	l.ranges[i] = Range{begin, end}
	l.ranges = slices.Delete(l.ranges, i+1, j)
}

// Append adds [begin, end) which must start at or after the current end of
// the list; it is the fast path for the labeler's sequential scan.
// It panics if the ranges are appended out of order.
func (l *List) Append(begin, end int) {
	if end <= begin {
		return
	}
	if n := len(l.ranges); n > 0 {
		last := &l.ranges[n-1]
		if begin < last.End {
			panic(fmt.Sprintf("rangelist: Append(%d,%d) before current end %d", begin, end, last.End))
		}
		if begin == last.End {
			last.End = end
			return
		}
	}
	l.ranges = append(l.ranges, Range{begin, end})
}

// Ranges returns the underlying ranges. The slice must not be modified.
func (l *List) Ranges() []Range { return l.ranges }

// NumRanges returns the number of distinct ranges.
func (l *List) NumRanges() int { return len(l.ranges) }

// Count returns the total number of integers covered.
func (l *List) Count() int {
	n := 0
	for _, r := range l.ranges {
		n += r.Len()
	}
	return n
}

// Contains reports whether i is covered by the list.
func (l *List) Contains(i int) bool {
	k := sort.Search(len(l.ranges), func(k int) bool { return l.ranges[k].End > i })
	return k < len(l.ranges) && l.ranges[k].Contains(i)
}

// Indices expands the list into a sorted slice of covered integers.
func (l *List) Indices() []int {
	out := make([]int, 0, l.Count())
	for _, r := range l.ranges {
		for i := r.Begin; i < r.End; i++ {
			out = append(out, i)
		}
	}
	return out
}

// Each calls fn for every covered integer in ascending order, stopping if
// fn returns false.
func (l *List) Each(fn func(i int) bool) {
	for _, r := range l.ranges {
		for i := r.Begin; i < r.End; i++ {
			if !fn(i) {
				return
			}
		}
	}
}

// Intersect returns the intersection of two lists.
func (l *List) Intersect(m *List) *List {
	out := New()
	i, j := 0, 0
	for i < len(l.ranges) && j < len(m.ranges) {
		a, b := l.ranges[i], m.ranges[j]
		lo, hi := max(a.Begin, b.Begin), min(a.End, b.End)
		if lo < hi {
			out.Append(lo, hi)
		}
		if a.End < b.End {
			i++
		} else {
			j++
		}
	}
	return out
}

// Union returns the union of two lists.
func (l *List) Union(m *List) *List {
	out := New()
	for _, r := range l.ranges {
		out.Add(r.Begin, r.End)
	}
	for _, r := range m.ranges {
		out.Add(r.Begin, r.End)
	}
	return out
}

// Complement returns the covered gaps within [0, n).
func (l *List) Complement(n int) *List {
	out := New()
	prev := 0
	for _, r := range l.ranges {
		if r.Begin >= n {
			break
		}
		if r.Begin > prev {
			out.Append(prev, r.Begin)
		}
		if r.End > prev {
			prev = r.End
		}
	}
	if prev < n {
		out.Append(prev, n)
	}
	return out
}

// Tile returns nil when lists cover [0, n) exactly once between them, and
// otherwise an error naming the first integer covered twice, left out, or
// at or past n.
func Tile(n int, lists ...*List) error {
	var all []Range
	for _, l := range lists {
		all = append(all, l.ranges...)
	}
	slices.SortFunc(all, func(a, b Range) int { return cmp.Compare(a.Begin, b.Begin) })
	covered := 0
	for _, r := range all {
		switch {
		case r.Begin < covered:
			return fmt.Errorf("rangelist: %d covered twice", r.Begin)
		case r.Begin > covered:
			return fmt.Errorf("rangelist: %d not covered", covered)
		case r.End > n:
			return fmt.Errorf("rangelist: %v reaches past %d", r, n)
		}
		covered = r.End
	}
	if covered != n {
		return fmt.Errorf("rangelist: covers [0, %d), not [0, %d)", covered, n)
	}
	return nil
}

// Equal reports whether two lists cover the same set.
func (l *List) Equal(m *List) bool {
	if len(l.ranges) != len(m.ranges) {
		return false
	}
	for i := range l.ranges {
		if l.ranges[i] != m.ranges[i] {
			return false
		}
	}
	return true
}

// String formats the list as "a-b,c-d,...".
func (l *List) String() string {
	parts := make([]string, len(l.ranges))
	for i, r := range l.ranges {
		parts[i] = r.String()
	}
	return strings.Join(parts, ",")
}

// Parse reads the String format back into a list.
func Parse(s string) (*List, error) {
	l := New()
	s = strings.TrimSpace(s)
	if s == "" {
		return l, nil
	}
	for _, part := range strings.Split(s, ",") {
		lohi := strings.SplitN(strings.TrimSpace(part), "-", 2)
		if len(lohi) != 2 {
			return nil, fmt.Errorf("%w: bad range %q", ErrSyntax, part)
		}
		lo, err := strconv.Atoi(lohi[0])
		if err != nil {
			return nil, fmt.Errorf("%w: bad begin in %q: %w", ErrSyntax, part, err)
		}
		hi, err := strconv.Atoi(lohi[1])
		if err != nil {
			return nil, fmt.Errorf("%w: bad end in %q: %w", ErrSyntax, part, err)
		}
		if hi < lo {
			return nil, fmt.Errorf("%w: inverted range %q", ErrSyntax, part)
		}
		l.Add(lo, hi)
	}
	return l, nil
}
