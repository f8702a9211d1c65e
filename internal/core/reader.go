package core

import (
	"fmt"
	"io"

	"repro/internal/rangelist"
	"repro/internal/xtc"
)

// SubsetReader streams the decompressed frames of one tagged subset — the
// I/O retriever's answer to `mol addfile bar.xtc tag p`. It is the one read
// path (subsetFetch) with a cursor.
type SubsetReader struct {
	Tag    string
	Info   Subset
	Ranges *rangelist.List
	fetch  *subsetFetch
	next   int
}

// resolveSubset is the indexer's half of an open: the tag's manifest entry
// and the atom ranges it covers.
func (a *ADA) resolveSubset(logical, tag string) (Subset, *rangelist.List, error) {
	m, err := a.Manifest(logical)
	if err != nil {
		return Subset{}, nil, err
	}
	info, ok := m.Subsets[tag]
	if !ok {
		return Subset{}, nil, fmt.Errorf("%w: %q in %s (have %v)", ErrUnknownTag, tag, logical, m.Tags())
	}
	ranges, err := rangelist.Parse(info.Ranges)
	if err != nil {
		return Subset{}, nil, fmt.Errorf("core: subset %s ranges: %w", tag, err)
	}
	return info, ranges, nil
}

// OpenSubset resolves a tag through the indexer (manifest) and opens its
// dropping for streaming reads. A dataset whose persisted index is lost or
// damaged still streams, unverified (see openFetch).
func (a *ADA) OpenSubset(logical, tag string) (*SubsetReader, error) {
	info, ranges, err := a.resolveSubset(logical, tag)
	if err != nil {
		return nil, err
	}
	fetch, err := a.openFetch(logical, tag, subsetPrefix+tag, indexPrefix+tag, true)
	if err != nil {
		return nil, err
	}
	return &SubsetReader{Tag: tag, Info: info, Ranges: ranges, fetch: fetch}, nil
}

// ReadFrame returns the next subset frame, or io.EOF.
func (s *SubsetReader) ReadFrame() (*xtc.Frame, error) { return s.readFrameInto(&xtc.Frame{}) }

// readFrameInto is ReadFrame decoding into dst (see subsetFetch.frameInto).
func (s *SubsetReader) readFrameInto(dst *xtc.Frame) (*xtc.Frame, error) {
	if s.next >= s.fetch.idx.Frames() {
		return nil, io.EOF
	}
	f, err := s.fetch.frameInto(s.next, dst)
	if err != nil {
		return nil, err
	}
	s.next++
	return f, nil
}

// Close releases the underlying dropping handle.
func (s *SubsetReader) Close() error { return s.fetch.close() }

// Size returns the subset's stored byte size.
func (s *SubsetReader) Size() int64 { return s.fetch.idx.TotalBytes() }

// SubsetRandomReader provides random access to one tagged subset's frames
// using the index persisted at ingest — what interactive playback
// ("replaying the frames back and forth") needs. It is the one read path
// (subsetFetch) plus the manifest metadata.
type SubsetRandomReader struct {
	Tag    string
	Info   Subset
	Ranges *rangelist.List
	fetch  *subsetFetch
}

// OpenSubsetAt opens a tagged subset for random frame access.
func (a *ADA) OpenSubsetAt(logical, tag string) (*SubsetRandomReader, error) {
	info, ranges, err := a.resolveSubset(logical, tag)
	if err != nil {
		return nil, err
	}
	fetch, err := a.openFetch(logical, tag, subsetPrefix+tag, indexPrefix+tag, false)
	if err != nil {
		return nil, err
	}
	return &SubsetRandomReader{Tag: tag, Info: info, Ranges: ranges, fetch: fetch}, nil
}

// Frames returns the subset's frame count.
func (s *SubsetRandomReader) Frames() int { return s.fetch.idx.Frames() }

// ReadFrameAt decodes subset frame i.
func (s *SubsetRandomReader) ReadFrameAt(i int) (*xtc.Frame, error) { return s.fetch.frame(i) }

// ConcurrentFrameReads reports that ReadFrameAt is safe for concurrent use,
// so the serve fabric's workers need not serialize on the handle.
func (s *SubsetRandomReader) ConcurrentFrameReads() bool { return true }

// Close releases the dropping handle.
func (s *SubsetRandomReader) Close() error { return s.fetch.close() }

// FullReader reassembles complete frames (every atom, original order) from
// all of a dataset's subsets — the "ADA (all)" scenario of the evaluation.
type FullReader struct {
	NAtoms  int
	subsets []*SubsetReader
	indices [][]int
	// scratch[i] is what subset i's frames decode into on their way to being
	// scattered into the full frame: none of them outlives a ReadFrame.
	scratch []xtc.Frame
}

// OpenFull opens every subset of the dataset and merges them.
func (a *ADA) OpenFull(logical string) (*FullReader, error) {
	m, err := a.Manifest(logical)
	if err != nil {
		return nil, err
	}
	fr := &FullReader{NAtoms: m.NAtoms}
	for _, tag := range m.Tags() {
		sr, err := a.OpenSubset(logical, tag)
		if err != nil {
			fr.Close()
			return nil, err
		}
		fr.subsets = append(fr.subsets, sr)
		fr.indices = append(fr.indices, sr.Ranges.Indices())
	}
	if len(fr.subsets) == 0 {
		return nil, fmt.Errorf("core: dataset %s has no subsets", logical)
	}
	fr.scratch = make([]xtc.Frame, len(fr.subsets))
	return fr, nil
}

// ReadFrame returns the next full frame, or io.EOF when every subset is
// exhausted. A dataset whose subsets have diverging frame counts is
// corrupt and yields an error.
func (f *FullReader) ReadFrame() (*xtc.Frame, error) {
	var out *xtc.Frame
	eofs := 0
	for i, sr := range f.subsets {
		sub, err := sr.readFrameInto(&f.scratch[i])
		if err == io.EOF {
			eofs++
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("core: subset %s: %w", sr.Tag, err)
		}
		if out == nil {
			out = &xtc.Frame{
				Step:   sub.Step,
				Time:   sub.Time,
				Box:    sub.Box,
				Coords: make([]xtc.Vec3, f.NAtoms),
			}
		}
		idx := f.indices[i]
		if len(idx) != sub.NAtoms() {
			return nil, fmt.Errorf("core: subset %s frame has %d atoms, ranges cover %d",
				sr.Tag, sub.NAtoms(), len(idx))
		}
		for j, atom := range idx {
			out.Coords[atom] = sub.Coords[j]
		}
	}
	if out == nil {
		if eofs == len(f.subsets) {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("core: no subset produced a frame")
	}
	if eofs != 0 {
		return nil, fmt.Errorf("core: %d of %d subsets ended early", eofs, len(f.subsets))
	}
	return out, nil
}

// Close closes every subset.
func (f *FullReader) Close() error {
	var first error
	for _, sr := range f.subsets {
		if err := sr.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Size returns the total stored bytes across subsets.
func (f *FullReader) Size() int64 {
	var n int64
	for _, sr := range f.subsets {
		n += sr.Size()
	}
	return n
}
