package core

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/rangelist"
	"repro/internal/vfs"
	"repro/internal/xtc"
)

// SubsetReader streams the decompressed frames of one tagged subset — the
// I/O retriever's answer to `mol addfile bar.xtc tag p`. It is the one read
// path (subsetFetch) with a cursor, fetching ahead of its consumer (see
// fetchAhead): the next frames' stored bytes are read and verified while the
// current one decodes. A SubsetReader is for one consumer goroutine.
type SubsetReader struct {
	Tag    string
	Info   Subset
	Ranges *rangelist.List
	fetch  *subsetFetch
	ahead  fetchAhead
	next   int   // frames handed out
	err    error // sticky: the first error, or errReaderClosed
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
		return Subset{}, nil, fmt.Errorf("core: subset %s ranges: %w: %w", tag, err, vfs.ErrCorrupted)
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
	fetch, err := a.openFetch(logical, tag, indexPrefix+tag, true)
	if err != nil {
		return nil, err
	}
	s := &SubsetReader{Tag: tag, Info: info, Ranges: ranges, fetch: fetch}
	s.ahead.s = fetch
	return s, nil
}

// ReadFrame returns the next subset frame, or io.EOF. After any other error
// the reader is done and returns that error forever.
func (s *SubsetReader) ReadFrame() (*xtc.Frame, error) { return s.readFrameInto(&xtc.Frame{}) }

// readFrameInto is ReadFrame decoding into dst, whose Coords are overwritten
// and reused: for a reader that copies out of each frame and keeps none.
func (s *SubsetReader) readFrameInto(dst *xtc.Frame) (*xtc.Frame, error) {
	err := s.readStored(func(b []byte) (err error) {
		dst, err = xtc.DecodeFrameBytesInto(b, dst)
		return err
	})
	if err != nil {
		return nil, err
	}
	return dst, nil
}

// readStored hands the next frame's verified stored bytes to use, which must
// not keep them, and moves past that frame: io.EOF after the last one. An
// error from the fetch or from use ends the reader.
func (s *SubsetReader) readStored(use func([]byte) error) error {
	if s.err != nil {
		return s.err
	}
	if s.next >= s.fetch.idx.Frames() {
		return io.EOF
	}
	b, err := s.ahead.take()
	if err == nil {
		err = use(b)
		s.ahead.recycle(b)
		if err != nil {
			err = fmt.Errorf("core: subset %s frame %d: %w", s.Tag, s.next, err)
		}
	}
	if err != nil {
		s.err = err
		return err
	}
	s.next++
	return nil
}

// Close stops the fetch ahead, waiting for a read in progress to return, and
// then releases the underlying dropping handle: once it returns the reader
// issues no backend op.
func (s *SubsetReader) Close() error {
	s.ahead.stop()
	if s.err == nil {
		s.err = errReaderClosed
	}
	return s.fetch.close()
}

// Size returns the subset's stored byte size.
func (s *SubsetReader) Size() int64 { return s.fetch.idx.TotalBytes() }

// aheadBytes is the stored bytes a sequential reader fetches ahead, as
// xtc.AheadReader decodes ahead on the write side; maxAhead caps the frames.
const (
	aheadBytes = 3 << 20
	maxAhead   = 64
)

// errReaderClosed is what a read after Close returns.
var errReaderClosed = errors.New("core: reader closed")

// fetched is one frame's verified stored bytes, or the error that ended the
// fetch.
type fetched struct {
	b   []byte
	err error
}

// fetchAhead reads a subset's frames through the verified read
// subsetFetch.frame makes (one vfs.ReadAtVerified per frame, each copy
// judged by accept, so failover is unchanged) and hands the bytes to the
// consumer to decode, in stream order. Like xtc.AheadReader, the first take
// fetches in line and, on more than one core, starts fetchers on the frames
// after it, aheadBytes ahead; an error arrives after every frame before it.
//
// On a real store two fetchers keep two reads in flight, so one frame's
// round trip overlaps the next one's. They claim frames in stream order, so
// the reads are issued in that order, and a frame is claimed only while the
// other fetcher is reading nothing or the frame before it: at most two
// reads are in flight, and a read that hangs stops the fetch one frame
// later. Each frame lands in its slot of a ring the consumer empties in
// order. A claim takes no lock, and an idle fetcher holds no claim, so
// either fetcher goes on alone while the other waits for the scheduler.
// Under a virtual clock one fetcher reads in stream order (readFetchers),
// because blockfs charges a seek to a read that does not continue its
// handle's last one.
type fetchAhead struct {
	s    *subsetFetch
	ft   [2]fetcher // ft[0] alone while fetching in line
	n    int        // fetchers started; 0 while fetching in line
	next int        // the frame take returns next

	free   chan []byte    // consumed buffers, to be fetched into again
	ring   []chan fetched // frame j's bytes, in ring[j%len(ring)]
	room   chan struct{}  // a token per ring slot free to claim
	claims atomic.Uint64  // the claim state (claimNext)
	ended  atomic.Bool    // stop, or a fetcher's error: claim nothing more
	quit   chan struct{}
	wg     sync.WaitGroup
}

// fetcher is one fetcher's frame, the verdict bound to it, and the kick
// that wakes it when the other fetcher finishes a read.
type fetcher struct {
	i    int               // the frame it reads
	ok   func([]byte) bool // subsetFetch.accept for frame i, bound once
	kick chan struct{}
}

// The claim state is one word: the frame claimed next (from claimShift up),
// whether fetcher 1 claimed the frame before it (claimLast), and which
// fetchers are reading (claimBusy<<k).
const (
	claimBusy  = 1
	claimLast  = 4
	claimShift = 3
)

// buffer returns a recycled buffer, or a new one, for frame i's stored bytes.
func (f *fetchAhead) buffer(i int) []byte {
	var b []byte
	select {
	case b = <-f.free:
	default:
	}
	n := int(f.s.idx.Size(i))
	if cap(b) < n {
		b = make([]byte, n, n+n/8) // headroom for the frames after it
	}
	return b[:n]
}

// bind points ft's verdict at the frame it reads.
func (f *fetchAhead) bind(ft *fetcher) {
	ft.ok = func(b []byte) bool { return f.s.accept(ft.i, b) }
}

// read reads and verifies frame ft.i's stored bytes into a recycled buffer.
func (f *fetchAhead) read(ft *fetcher) fetched {
	b := f.buffer(ft.i)
	if err := vfs.ReadAtVerified(f.s.file, b, f.s.idx.Offset(ft.i), ft.ok); err != nil {
		return fetched{err: fmt.Errorf("core: subset %s frame %d: %w", f.s.tag, ft.i, err)}
	}
	return fetched{b: b}
}

// take returns the next frame's verified bytes, the consumer's until it
// hands them back with recycle.
func (f *fetchAhead) take() ([]byte, error) {
	if f.n > 0 {
		d := <-f.ring[f.next%len(f.ring)]
		f.next++
		f.room <- struct{}{}
		return d.b, d.err
	}
	if f.free == nil {
		// Every buffer in flight can come back: the ring's, a claimed
		// frame's and the consumer's.
		f.free = make(chan []byte, maxAhead+2)
		f.bind(&f.ft[0])
	}
	d := f.read(&f.ft[0])
	if d.err != nil {
		return nil, d.err
	}
	f.ft[0].i++
	f.next++
	if f.next == 1 && f.next < f.s.idx.Frames() && xtc.DefaultWorkers(0) > 1 {
		f.start(len(d.b))
	}
	return d.b, nil
}

// start sizes the ring from the first frame's stored size and starts the
// fetchers on the frames after it. Their buffers are allocated here in one
// piece, so a short read allocates nothing per frame either.
func (f *fetchAhead) start(first int) {
	depth := min(maxAhead, max(2, aheadBytes/first))
	slot := first + first/8
	slots := min(depth+1, f.s.idx.Frames()-f.next) // the ring's and a claim's
	slab := make([]byte, slots*slot)
	for k := range slots {
		f.free <- slab[k*slot : (k+1)*slot : (k+1)*slot]
	}
	f.ring = make([]chan fetched, depth)
	f.room = make(chan struct{}, depth)
	for k := range f.ring {
		f.ring[k] = make(chan fetched, 1)
		f.room <- struct{}{}
	}
	f.claims.Store(uint64(f.next) << claimShift)
	f.quit = make(chan struct{})
	f.n = f.s.a.readFetchers()
	// Everything a fetcher uses is made here, before any runs, so the
	// fetch allocates nothing once it is under way.
	for k := range f.n {
		f.ft[k].kick = make(chan struct{}, 1)
		if f.ft[k].ok == nil {
			f.bind(&f.ft[k])
		}
	}
	f.wg.Add(f.n)
	for k := range f.n {
		go f.fetch(k)
	}
}

// fetch is fetcher k: it claims the next frame once its ring slot is free
// and the other fetcher allows, reads it into the slot, and goes on until
// the frames or the fetch end.
func (f *fetchAhead) fetch(k int) {
	defer f.wg.Done()
	ft := &f.ft[k]
	for {
		select {
		case <-f.room:
		case <-f.quit:
			return
		}
		var ok bool
		if ft.i, ok = f.claimNext(k); !ok {
			return
		}
		d := f.read(ft)
		f.ring[ft.i%len(f.ring)] <- d // free: the room token said so
		if d.err != nil {
			f.ended.Store(true)
		}
		for s := f.claims.Load(); !f.claims.CompareAndSwap(s, s&^(claimBusy<<k)); s = f.claims.Load() {
		}
		select {
		case f.ft[1-k].kick <- struct{}{}:
		default:
		}
		if d.err != nil {
			return
		}
	}
}

// claimYields is how often a fetcher that may not claim yet yields its P
// before it parks on its kick. The other fetcher's read is then mostly done
// and it is waiting for a P; a park would cost a wake-up and, after a
// collection has emptied the runtime's caches, an allocation.
const claimYields = 16

// claimNext claims the next frame for fetcher k, waiting while the other
// fetcher is reading a frame before the one before it; false when the
// frames or the fetch have ended.
func (f *fetchAhead) claimNext(k int) (int, bool) {
	for tries := 0; ; tries++ {
		s := f.claims.Load()
		next := int(s >> claimShift)
		if next >= f.s.idx.Frames() || f.ended.Load() {
			return 0, false
		}
		otherBusy := s&(claimBusy<<(1-k)) != 0
		otherLast := (s&claimLast != 0) == (k == 0) // the other claimed next-1
		if !otherBusy || otherLast {
			claimed := uint64(next+1)<<claimShift | s&(claimBusy<<(1-k)) | claimBusy<<k | uint64(k)*claimLast
			if f.claims.CompareAndSwap(s, claimed) {
				return next, true
			}
			continue
		}
		if tries < claimYields {
			runtime.Gosched()
			continue
		}
		select {
		case <-f.ft[k].kick:
		case <-f.quit:
			return 0, false
		}
	}
}

// recycle hands b, bytes take returned, back to be fetched into again.
func (f *fetchAhead) recycle(b []byte) {
	select {
	case f.free <- b:
	default:
	}
}

// stop ends the fetch and waits for it: a read in progress returns first.
func (f *fetchAhead) stop() {
	if f.quit == nil {
		return
	}
	f.ended.Store(true)
	close(f.quit)
	f.wg.Wait()
	f.quit = nil
}

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
	fetch, err := a.openFetch(logical, tag, indexPrefix+tag, false)
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
// Each subset's stored bytes convert straight into the full frame, one run
// of its atom ranges at a time.
type FullReader struct {
	NAtoms  int
	subsets []*SubsetReader
}

// OpenFull opens every subset of the dataset and merges them. Subsets whose
// atom ranges overlap, leave a gap or pass NAtoms make the manifest corrupt.
func (a *ADA) OpenFull(logical string) (*FullReader, error) {
	m, err := a.Manifest(logical)
	if err != nil {
		return nil, err
	}
	fr := &FullReader{NAtoms: m.NAtoms}
	var ranges []*rangelist.List
	for _, tag := range m.Tags() {
		sr, err := a.OpenSubset(logical, tag)
		if err != nil {
			fr.Close()
			return nil, err
		}
		fr.subsets = append(fr.subsets, sr)
		ranges = append(ranges, sr.Ranges)
	}
	if len(fr.subsets) == 0 {
		return nil, fmt.Errorf("core: dataset %s has no subsets", logical)
	}
	if err := rangelist.Tile(m.NAtoms, ranges...); err != nil {
		fr.Close()
		return nil, fmt.Errorf("core: dataset %s subset ranges: %w: %w", logical, err, vfs.ErrCorrupted)
	}
	return fr, nil
}

// ReadFrame returns the next full frame, the caller's, or io.EOF when every
// subset is exhausted. A dataset whose subsets have diverging frame counts
// is corrupt and yields an error.
func (f *FullReader) ReadFrame() (*xtc.Frame, error) {
	var out *xtc.Frame
	eofs := 0
	for _, sr := range f.subsets {
		err := sr.readStored(func(b []byte) error {
			v, err := xtc.ParseFrame(b)
			if err != nil {
				return err
			}
			if n, want := v.NAtoms(), sr.Ranges.Count(); n != want {
				return fmt.Errorf("frame has %d atoms, ranges cover %d", n, want)
			}
			if out == nil {
				out = &xtc.Frame{Step: v.Step, Time: v.Time, Box: v.Box, Coords: make([]xtc.Vec3, f.NAtoms)}
			}
			k := 0
			for _, r := range sr.Ranges.Ranges() {
				v.CoordsInto(out.Coords[r.Begin:r.End], k)
				k += r.Len()
			}
			return nil
		})
		if err == io.EOF {
			eofs++
			continue
		}
		if err != nil {
			return nil, err
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
