package xtc

import (
	"errors"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/internal/metrics"
)

// aheadBytes is the encoded input an AheadReader decodes ahead of its
// consumer: about 3 MiB, so a consumer held up for a while (a slow write, a
// checkpoint) comes back to a queue of frames rather than an empty one —
// fifteen of 200 kB; six ran dry.
const aheadBytes = 3 << 20

// maxLookahead caps the frames decoded ahead, however small they are, and
// sizes the recycle list, so every frame in flight can come back to be
// refilled.
const maxLookahead = 64

// errAheadClosed is what a read after Close returns.
var errAheadClosed = errors.New("xtc: reader closed")

// AheadReader decodes a frame stream on one goroutine running ahead of its
// consumer: the goroutine scans each frame's bytes, decodes them (into a
// frame the consumer handed back, when there is one) and sends the frame,
// its exact encoded size or the stream's terminal error down a channel, in
// stream order. The frames are Reader's, and an error surfaces only after
// every frame before it.
//
// The lookahead is bounded by encoded bytes: the channel holds aheadBytes of
// input, sized from the first frame — which the consumer decodes itself —
// between two frames and maxLookahead. A scheduler with one core has nothing
// to decode ahead on, so there the consumer scans and decodes every frame in
// line and no goroutine starts.
//
// AheadReader is for one consumer goroutine; ReadFrame itself must not be
// called concurrently.
type AheadReader struct {
	r io.Reader

	// Observe, when set before the first read, receives the wall-clock
	// nanoseconds of every frame decode (on the decoder goroutine; the
	// target must be concurrency-safe, like a metrics.Histogram).
	Observe func(ns int64)

	frames *metrics.Counter
	ns     *metrics.Histogram

	// aheadBytes is the encoded input the channel is sized to hold; tests
	// move it to take the lookahead to its floor or its cap.
	aheadBytes int
	depth      int // frames the channel holds; 0 until the decoder starts

	sc     *Scanner     // nil until Start
	reuse  *Scanner     // the Scanner Start resets onto r, when ScanWith gave one
	first  decoded      // the frame Start decoded, until the first read takes it
	primed bool         // first is not yet read
	out    chan decoded // nil when decoding in line
	quit   chan struct{}
	done   chan struct{} // closed when the decoder goroutine has exited
	once   sync.Once
	free   RecycleList // frames handed back by Recycle, to be decoded into again
	err    error       // sticky terminal error (io.EOF included)
}

// RecycleList holds decoded frames handed back for reuse. Every reader
// decodes into the frames its own list holds; readers that take turns over
// one stream cut into pieces — a live session's batches — share one list, so
// each piece decodes into the frames the pieces before it handed back.
type RecycleList chan *Frame

// NewRecycleList returns a list with room for every frame one reader can
// have in flight.
func NewRecycleList() RecycleList { return make(RecycleList, maxLookahead) }

// decoded is one frame off the decoder, or the stream's terminal error.
type decoded struct {
	f    *Frame
	size int64
	err  error
}

// DefaultWorkers is the worker count selected for n <= 0: the cores the
// scheduler may run on, bounded by the machine's and by GOMAXPROCS, at least
// one. The serve fabric sizes its decode pool with it; an AheadReader decodes
// in line when it is one.
func DefaultWorkers(n int) int {
	if n > 0 {
		return n
	}
	n = runtime.NumCPU()
	if p := runtime.GOMAXPROCS(0); p < n {
		n = p
	}
	if n < 1 {
		n = 1
	}
	return n
}

// NewAheadReader returns a reader over r decoding ahead of its consumer.
func NewAheadReader(r io.Reader) *AheadReader { return NewAheadReaderRecycling(r, NewRecycleList()) }

// NewAheadReaderRecycling is NewAheadReader decoding into, and recycling to,
// free, which other readers may have filled. Only one of them reads at a time.
func NewAheadReaderRecycling(r io.Reader, free RecycleList) *AheadReader {
	return &AheadReader{r: r, aheadBytes: aheadBytes, free: free}
}

// ScanWith has the reader scan its source with sc, reset onto it, instead
// of a new Scanner: a live session's batches share one, as they share their
// RecycleList. Call before the first read; sc is the reader's until Stop
// returns.
func (p *AheadReader) ScanWith(sc *Scanner) { p.reuse = sc }

// SetMetrics records the xtc.decode.frames and xtc.decode.ns runtime metrics
// into reg. Call before the first ReadFrame.
func (p *AheadReader) SetMetrics(reg *metrics.Registry) {
	if reg != nil {
		p.frames, p.ns = reg.Counter("xtc.decode.frames"), reg.Histogram("xtc.decode.ns")
	}
}

// next scans and decodes one frame, timing the decode into the Observe hook
// and the metrics.
func (p *AheadReader) next() (*Frame, int64, error) {
	blob, err := p.sc.Next()
	if err != nil {
		return nil, 0, err
	}
	var f *Frame
	select {
	case f = <-p.free:
	default:
		f = &Frame{}
	}
	t0 := time.Now()
	f, err = decodeBytesInto(blob, f)
	ns := time.Since(t0).Nanoseconds()
	if p.Observe != nil {
		p.Observe(ns)
	}
	p.ns.Observe(ns)
	if err != nil {
		return nil, 0, err
	}
	p.frames.Inc()
	return f, int64(len(blob)), nil
}

// start sizes the channel from the first frame's encoded size and starts the
// decoder on the frames after it.
func (p *AheadReader) start(first int64) {
	p.depth = min(maxLookahead, max(2, p.aheadBytes/int(first)))
	p.out = make(chan decoded, p.depth)
	p.quit, p.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(p.done)
		for {
			select {
			case <-p.quit:
				return
			default:
			}
			f, size, err := p.next()
			select {
			case p.out <- decoded{f, size, err}:
			case <-p.quit:
				return
			}
			if err != nil {
				return
			}
		}
	}()
}

// Start begins decoding, as the first read would: the first frame in line,
// then the decoder goroutine on the frames after it. The first read returns
// the frame decoded here. A consumer calls it to have decoding under way
// while it waits on something else. Start after Close, or a second Start,
// does nothing.
func (p *AheadReader) Start() {
	if p.sc != nil || p.err != nil {
		return
	}
	if p.sc = p.reuse; p.sc != nil {
		p.sc.Reset(p.r)
	} else {
		p.sc = NewScanner(p.r)
	}
	d := &p.first
	d.f, d.size, d.err = p.next()
	p.primed = true
	if d.err == nil && DefaultWorkers(0) > 1 {
		p.start(d.size)
	}
}

// ReadFrameSize decodes the next frame and reports its encoded byte length.
// Semantics match Reader.ReadFrame: io.EOF at a clean end of stream,
// io.ErrUnexpectedEOF for truncation. After any error the reader is done and
// returns that error forever.
func (p *AheadReader) ReadFrameSize() (*Frame, int64, error) {
	if p.err != nil {
		return nil, 0, p.err
	}
	p.Start()
	var d decoded
	switch {
	case p.primed:
		d, p.first, p.primed = p.first, decoded{}, false
	case p.out != nil:
		d = <-p.out
	default:
		d.f, d.size, d.err = p.next()
	}
	p.err = d.err
	return d.f, d.size, d.err
}

// Recycle hands f, a frame this reader returned, back to be decoded into
// again; the caller must not touch it afterwards. A consumer that is done
// with each frame before it asks for many more — ingest writes a frame out
// and drops it — then runs on the few frames in flight instead of allocating
// every frame of the stream: no garbage collection cycle and no first-touch
// page fault per frame, whose timing is what made one ingest's wall time
// differ from the next. Frames beyond the recycle list are left to the
// collector.
func (p *AheadReader) Recycle(f *Frame) {
	select {
	case p.free <- f:
	default:
	}
}

// ReadFrame decodes the next frame, identically to Reader.ReadFrame.
func (p *AheadReader) ReadFrame() (*Frame, error) {
	f, _, err := p.ReadFrameSize()
	return f, err
}

// ReadAll decodes every frame in the stream.
func (p *AheadReader) ReadAll() ([]*Frame, error) {
	var frames []*Frame
	for {
		f, err := p.ReadFrame()
		if err == io.EOF {
			return frames, nil
		}
		if err != nil {
			return frames, err
		}
		frames = append(frames, f)
	}
}

// Close stops the decoder. It is idempotent and safe to call mid-stream;
// subsequent reads return an error (or the io.EOF already reached). It does
// not wait: a decoder mid-frame, or blocked reading the source, exits once
// that returns, so an ingest failing on a write returns at once whatever
// its source is doing.
func (p *AheadReader) Close() error {
	if p.quit != nil {
		p.once.Do(func() { close(p.quit) })
	}
	if p.err == nil {
		p.err = errAheadClosed
	}
	return nil
}

// Stop is Close, then a wait for the decoder goroutine to exit: once it
// returns nothing reads the source any more, so the caller may reuse the
// memory behind it. Only for a source whose reads return promptly — a
// bytes.Reader — since the wait lasts as long as the read in progress.
func (p *AheadReader) Stop() {
	p.Close()
	if p.done != nil {
		<-p.done
	}
}
