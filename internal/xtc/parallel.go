package xtc

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// DefaultBatchBytes is the target encoded size of one decode work item.
// Per-frame work items drown the ~µs channel send and pool traffic in
// per-item overhead once frames decode in hundreds of microseconds; a
// quarter-megabyte batch amortizes that overhead over many frames while
// staying small enough to spread a modest stream across the pool.
const DefaultBatchBytes = 256 << 10

// maxBatchFrames caps the frames per batch so tiny-frame streams still
// produce enough work items to keep every worker busy, and so the
// re-sequencing buffer stays bounded.
const maxBatchFrames = 64

// ParallelReader decodes a frame stream with a pool of worker goroutines and
// re-sequences the results, so output is frame-for-frame identical to Reader
// while the expensive 3dfcoord decompression runs on every core. A single
// Scanner goroutine finds frame boundaries (cheap: header + blob length) and
// accumulates contiguous multi-frame batches — appended zero-copy into a
// pooled blob — that are handed to the next free worker; the consumer side
// reorders by batch sequence number, with a direct fast path when batches
// arrive already in order (the common case for near-uniform frame cost).
//
// Batches in flight — scanned but not yet handed to the consumer — are
// bounded by credits: the scanner takes one before it scans a batch and the
// consumer returns it when that batch becomes the one being delivered, so at
// most 2*workers+1 batches (each at most maxBatchFrames frames and about
// BatchBytes encoded bytes) exist beyond the one the consumer is draining,
// however unevenly the workers run.
//
// A pool of one under a scheduler with a single core (DefaultWorkers(0) == 1)
// has nothing to decode ahead on, so it starts no goroutines at all: the
// consumer's goroutine scans and decodes in line. With a second core a pool
// of one is one worker running ahead of the consumer.
//
// ParallelReader is for one consumer goroutine; ReadFrame itself must not be
// called concurrently.
type ParallelReader struct {
	r       io.Reader
	workers int

	// Observe, when set before the first read, receives the wall-clock
	// nanoseconds of every frame decode (in worker goroutines; the target
	// must be concurrency-safe, like a metrics.Histogram).
	Observe func(ns int64)

	// BatchBytes, when set before the first read, overrides the target
	// encoded bytes per work item (<=0 selects DefaultBatchBytes).
	BatchBytes int

	pm pdMetrics

	started bool
	work    chan scanBatch
	results chan decodeBatch
	credits chan struct{} // one token per batch in flight; cap = 2*workers+1
	quit    chan struct{}
	once    sync.Once
	inline  *Scanner    // the in-line path's scanner; nil when the pool runs
	free    chan *Frame // frames handed back by Recycle, for the decoders to fill again

	// Consumer-side re-sequencing state. cur is the batch being delivered;
	// out-of-order arrivals wait in pending. Every pending batch holds a
	// credit, so len(pending) never exceeds cap(credits) (asserted by tests
	// via maxPending).
	pending    map[int]decodeBatch
	cur        decodeBatch
	curIdx     int
	haveCur    bool
	next       int
	maxPending int
	err        error // sticky terminal error (including io.EOF)
	busy       []atomic.Int64
}

// scanBatch is one work item: the concatenated encoded bytes of up to
// maxBatchFrames frames. err, when set, is the scanner's terminal error
// (io.EOF included), to be surfaced only after every frame in this batch.
type scanBatch struct {
	seq  int
	blob []byte
	ends []int // ends[i] = end offset of frame i within blob
	err  error
}

// decodeBatch is one work item's decoded output. err is either a decode
// error at frame len(frames) of the batch or the scanner's terminal error,
// either way to be surfaced only after frames.
type decodeBatch struct {
	seq    int
	frames []*Frame
	sizes  []int64
	err    error
}

// pdMetrics are the optional xtc.decode.* runtime metrics.
type pdMetrics struct {
	frames  *metrics.Counter
	batches *metrics.Counter
	ns      *metrics.Histogram
	workers *metrics.Gauge
}

// DefaultWorkers is the worker count selected for n <= 0: bounded by the
// machine's cores and by GOMAXPROCS (so a capped scheduler caps the pool).
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

// DecodeAheadWorkers is the pool size for a reader whose consumer is itself
// CPU-bound, as ingest's sequencing goroutine is (split, CRC, the rpc
// client): n > 0 passes through; otherwise one worker per core less the
// core the consumer keeps busy, and never fewer than one. With a decoder on
// every core the workers take the consumer's core whenever they hold a
// credit, and the consumer is the critical path: over a loopback cluster on
// 2 cores, ingest with two workers was a tenth slower than with one and its
// time varied half again as much from one call to the next.
func DecodeAheadWorkers(n int) int {
	if n > 0 {
		return n
	}
	return max(1, DefaultWorkers(0)-1)
}

// NewParallelReader returns a reader over r decoding on `workers` goroutines
// (<=0 selects DefaultWorkers).
func NewParallelReader(r io.Reader, workers int) *ParallelReader {
	workers = DefaultWorkers(workers)
	return &ParallelReader{
		r:       r,
		workers: workers,
		pending: make(map[int]decodeBatch),
		busy:    make([]atomic.Int64, workers),
		free:    make(chan *Frame, maxBatchFrames),
	}
}

// SetMetrics records xtc.decode.* runtime metrics into reg. Call before the
// first ReadFrame.
func (p *ParallelReader) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	p.pm = pdMetrics{
		frames:  reg.Counter("xtc.decode.frames"),
		batches: reg.Counter("xtc.decode.batches"),
		ns:      reg.Histogram("xtc.decode.ns"),
		workers: reg.Gauge("xtc.decode.workers"),
	}
}

// Workers returns the size of the decode pool.
func (p *ParallelReader) Workers() int { return p.workers }

// WorkerBusy returns each worker's accumulated wall-clock decode time. It is
// safe to call at any point; mid-stream values are snapshots.
func (p *ParallelReader) WorkerBusy() []time.Duration {
	out := make([]time.Duration, len(p.busy))
	for i := range p.busy {
		out[i] = time.Duration(p.busy[i].Load())
	}
	return out
}

// batchBytes returns the effective batch-size target.
func (p *ParallelReader) batchBytes() int {
	if p.BatchBytes > 0 {
		return p.BatchBytes
	}
	return DefaultBatchBytes
}

func (p *ParallelReader) start() {
	p.started = true
	p.work = make(chan scanBatch, p.workers)
	p.results = make(chan decodeBatch, p.workers+1)
	p.credits = make(chan struct{}, 2*p.workers+1)
	p.quit = make(chan struct{})
	p.pm.workers.Set(int64(p.workers))

	var wg sync.WaitGroup
	for w := 0; w < p.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := range p.work {
				d := p.decodeBatch(w, it)
				select {
				case p.results <- d:
				case <-p.quit:
					return
				}
			}
		}(w)
	}

	// Scanner: frame boundaries only, accumulated into multi-frame batch
	// blobs. The terminal error (io.EOF included) rides on the final batch,
	// so the consumer surfaces it only after every preceding frame.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(p.work)
		sc := NewScanner(p.r)
		target := p.batchBytes()
		seq := 0
		for {
			select {
			case p.credits <- struct{}{}:
			case <-p.quit:
				return
			}
			// Preallocate the target, but not a caller's arbitrarily large
			// one: AppendNext grows the blob as frames actually arrive.
			blob := getBytes(min(target, 4*DefaultBatchBytes))[:0]
			var ends []int
			var scanErr error
			for len(blob) < target && len(ends) < maxBatchFrames {
				grown, err := sc.AppendNext(blob)
				if err != nil {
					scanErr = err
					break
				}
				blob = grown
				ends = append(ends, len(blob))
			}
			select {
			case p.work <- scanBatch{seq: seq, blob: blob, ends: ends, err: scanErr}:
			case <-p.quit:
				putBytes(blob)
				return
			}
			if scanErr != nil {
				return
			}
			seq++
		}
	}()

	go func() {
		wg.Wait()
		close(p.results)
	}()
}

// decodeBatch decodes every frame of one batch on worker w. A decode failure
// truncates the batch at the failing frame and replaces the batch error.
func (p *ParallelReader) decodeBatch(w int, it scanBatch) decodeBatch {
	d := decodeBatch{seq: it.seq, err: it.err}
	if n := len(it.ends); n > 0 {
		d.frames = make([]*Frame, 0, n)
		d.sizes = make([]int64, 0, n)
	}
	start := 0
	for _, end := range it.ends {
		f, err := p.decodeFrame(w, it.blob[start:end])
		if err != nil {
			d.err = err
			break
		}
		d.frames = append(d.frames, f)
		d.sizes = append(d.sizes, int64(end-start))
		start = end
	}
	p.pm.batches.Inc()
	putBytes(it.blob)
	return d
}

// decodeFrame decodes one encoded frame on worker w, timing it into the
// worker's busy counter, the Observe hook and the xtc.decode.* metrics.
func (p *ParallelReader) decodeFrame(w int, blob []byte) (*Frame, error) {
	var f *Frame
	select {
	case f = <-p.free:
	default:
		f = &Frame{}
	}
	t0 := time.Now()
	f, err := decodeBytesInto(blob, f)
	ns := time.Since(t0).Nanoseconds()
	p.busy[w].Add(ns)
	if p.Observe != nil {
		p.Observe(ns)
	}
	p.pm.ns.Observe(ns)
	if err == nil {
		p.pm.frames.Inc()
	}
	return f, err
}

// readInline is ReadFrameSize without a pool: scan and decode on the
// caller's goroutine.
func (p *ParallelReader) readInline() (*Frame, int64, error) {
	blob, err := p.inline.Next()
	var f *Frame
	if err == nil {
		f, err = p.decodeFrame(0, blob)
	}
	if err != nil {
		p.err = err
		return nil, 0, err
	}
	return f, int64(len(blob)), nil
}

// deliver makes d the batch being handed out and returns its credit.
func (p *ParallelReader) deliver(d decodeBatch) {
	p.cur, p.curIdx, p.haveCur = d, 0, true
	<-p.credits
}

// ReadFrameSize decodes the next frame and reports its encoded byte length.
// Semantics match Reader.ReadFrame: io.EOF at a clean end of stream,
// io.ErrUnexpectedEOF for truncation. After any error the reader is done and
// returns that error forever.
func (p *ParallelReader) ReadFrameSize() (*Frame, int64, error) {
	if p.err != nil {
		return nil, 0, p.err
	}
	if !p.started && p.inline == nil {
		if p.workers == 1 && DefaultWorkers(0) == 1 {
			p.inline = NewScanner(p.r)
			p.pm.workers.Set(1)
		} else {
			p.start()
		}
	}
	if p.inline != nil {
		return p.readInline()
	}
	for {
		if p.haveCur {
			if p.curIdx < len(p.cur.frames) {
				f, size := p.cur.frames[p.curIdx], p.cur.sizes[p.curIdx]
				p.cur.frames[p.curIdx] = nil // allow GC as frames drain
				p.curIdx++
				return f, size, nil
			}
			if p.cur.err != nil {
				p.err = p.cur.err
				p.Close()
				return nil, 0, p.err
			}
			p.haveCur = false
			p.next++
		}
		if d, ok := p.pending[p.next]; ok {
			delete(p.pending, p.next)
			p.deliver(d)
			continue
		}
		d, ok := <-p.results
		if !ok {
			p.err = fmt.Errorf("xtc: parallel reader closed mid-stream")
			return nil, 0, p.err
		}
		if d.seq == p.next {
			// In-order fast path: no re-sequencing buffer traffic.
			p.deliver(d)
			continue
		}
		p.pending[d.seq] = d
		if len(p.pending) > p.maxPending {
			p.maxPending = len(p.pending)
		}
	}
}

// Recycle hands f, a frame this reader returned, back to be decoded into
// again; the caller must not touch it afterwards. A consumer that is done
// with each frame before it asks for many more — ingest writes a frame out
// and drops it — then runs on the few frames in flight instead of allocating
// every frame of the stream: no garbage collection cycle and no first-touch
// page fault per frame, whose timing is what made one ingest's wall time
// differ from the next. Frames beyond a batch's worth are left to the
// collector.
func (p *ParallelReader) Recycle(f *Frame) {
	select {
	case p.free <- f:
	default:
	}
}

// ReadFrame decodes the next frame, identically to Reader.ReadFrame.
func (p *ParallelReader) ReadFrame() (*Frame, error) {
	f, _, err := p.ReadFrameSize()
	return f, err
}

// ReadAll decodes every frame in the stream.
func (p *ParallelReader) ReadAll() ([]*Frame, error) {
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

// Close stops the scanner and the worker pool. It is idempotent and safe to
// call mid-stream; subsequent reads return an error.
func (p *ParallelReader) Close() error {
	if !p.started {
		p.started = true
		if p.err == nil {
			p.err = fmt.Errorf("xtc: parallel reader closed")
		}
		return nil
	}
	p.once.Do(func() {
		close(p.quit)
		// Drain so the closer goroutine's wg.Wait can finish even if
		// workers were blocked sending.
		go func() {
			for range p.results {
			}
		}()
	})
	if p.err == nil {
		p.err = fmt.Errorf("xtc: parallel reader closed")
	}
	return nil
}
