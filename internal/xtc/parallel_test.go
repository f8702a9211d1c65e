package xtc

import (
	"bytes"
	"io"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// mixedStream interleaves compressed and raw frames (plus one small-atom
// compressed frame, which the codec stores uncompressed inside a compressed
// envelope) into a single stream, exercising every framing path the scanner
// knows.
func mixedStream(t *testing.T, frames int) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	var buf bytes.Buffer
	cw := NewWriter(&buf)
	rw := NewRawWriter(&buf)
	for k := 0; k < frames; k++ {
		natoms := 30 + rng.Intn(20)
		if k == frames/2 {
			natoms = smallAtomThreshold // small system: raw-inside-compressed path
		}
		coords := make([]Vec3, natoms)
		for i := range coords {
			coords[i] = Vec3{rng.Float32() * 5, rng.Float32() * 5, rng.Float32() * 5}
		}
		f := &Frame{Step: int32(k), Time: float32(k) * 0.5, Precision: 1000, Coords: coords}
		w := cw
		if k%3 == 2 {
			w = rw
		}
		if err := w.WriteFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func framesEqual(t *testing.T, got, want []*Frame) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("frame count %d, want %d", len(got), len(want))
	}
	for k := range want {
		g, w := got[k], want[k]
		if g.Step != w.Step || g.Time != w.Time || g.Precision != w.Precision ||
			g.Box != w.Box || len(g.Coords) != len(w.Coords) {
			t.Fatalf("frame %d header mismatch: %+v vs %+v", k, g, w)
		}
		for i := range w.Coords {
			if g.Coords[i] != w.Coords[i] {
				t.Fatalf("frame %d atom %d: %v != %v", k, i, g.Coords[i], w.Coords[i])
			}
		}
	}
}

// TestParallelReaderMatchesSerial: byte-identical semantics at every worker
// count, including more workers than frames.
func TestParallelReaderMatchesSerial(t *testing.T) {
	stream := mixedStream(t, 9)
	want, err := NewReader(bytes.NewReader(stream)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 9 {
		t.Fatalf("serial read %d frames", len(want))
	}
	for _, workers := range []int{1, 2, 4, 8, 16} {
		pr := NewParallelReader(bytes.NewReader(stream), workers)
		got, err := pr.ReadAll()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		framesEqual(t, got, want)
		if pr.Workers() != workers {
			t.Errorf("Workers() = %d, want %d", pr.Workers(), workers)
		}
		pr.Close()
	}
}

// TestParallelReaderFrameSizes: per-frame encoded sizes sum to the stream
// length (the feed into virtual-time decompression charging).
func TestParallelReaderFrameSizes(t *testing.T) {
	stream := mixedStream(t, 6)
	pr := NewParallelReader(bytes.NewReader(stream), 2)
	defer pr.Close()
	var total int64
	for {
		_, size, err := pr.ReadFrameSize()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if size <= 0 {
			t.Fatalf("non-positive frame size %d", size)
		}
		total += size
	}
	if total != int64(len(stream)) {
		t.Errorf("frame sizes sum to %d, stream is %d bytes", total, len(stream))
	}
}

// TestParallelReaderEmptyStream: immediate clean EOF, and EOF is sticky.
func TestParallelReaderEmptyStream(t *testing.T) {
	pr := NewParallelReader(bytes.NewReader(nil), 4)
	defer pr.Close()
	if frames, err := pr.ReadAll(); err != nil || len(frames) != 0 {
		t.Fatalf("empty stream: %d frames, %v", len(frames), err)
	}
	for k := 0; k < 3; k++ {
		if _, err := pr.ReadFrame(); err != io.EOF {
			t.Fatalf("read %d after EOF: %v, want io.EOF", k, err)
		}
	}
}

// TestParallelReaderStickyEOF: after the stream ends, every further read
// returns io.EOF, matching the serial Reader.
func TestParallelReaderStickyEOF(t *testing.T) {
	stream := mixedStream(t, 4)
	pr := NewParallelReader(bytes.NewReader(stream), 2)
	defer pr.Close()
	if frames, err := pr.ReadAll(); err != nil || len(frames) != 4 {
		t.Fatalf("%d frames, %v", len(frames), err)
	}
	if _, err := pr.ReadFrame(); err != io.EOF {
		t.Fatalf("post-EOF read: %v", err)
	}
}

// TestParallelReaderCloseMidStream: Close with frames still queued must not
// deadlock, and later reads fail cleanly.
func TestParallelReaderCloseMidStream(t *testing.T) {
	stream := mixedStream(t, 12)
	pr := NewParallelReader(bytes.NewReader(stream), 2)
	if _, err := pr.ReadFrame(); err != nil {
		t.Fatal(err)
	}
	pr.Close()
	pr.Close() // idempotent
	if _, err := pr.ReadFrame(); err == nil {
		t.Fatal("read after Close succeeded")
	}
}

// TestParallelReaderCloseUnstarted: closing before any read is legal.
func TestParallelReaderCloseUnstarted(t *testing.T) {
	pr := NewParallelReader(bytes.NewReader(mixedStream(t, 2)), 2)
	pr.Close()
	if _, err := pr.ReadFrame(); err == nil {
		t.Fatal("read after Close succeeded")
	}
}

// TestParallelReaderWorkerBusy: with enough frames, decode time lands on the
// workers and is visible through WorkerBusy.
func TestParallelReaderWorkerBusy(t *testing.T) {
	stream := mixedStream(t, 16)
	pr := NewParallelReader(bytes.NewReader(stream), 2)
	defer pr.Close()
	if _, err := pr.ReadAll(); err != nil {
		t.Fatal(err)
	}
	busy := pr.WorkerBusy()
	if len(busy) != 2 {
		t.Fatalf("WorkerBusy len %d", len(busy))
	}
	var total int64
	for _, d := range busy {
		total += int64(d)
	}
	if total <= 0 {
		t.Error("no decode time recorded on any worker")
	}
}

// TestParallelReaderObserve: the per-decode hook fires once per frame.
func TestParallelReaderObserve(t *testing.T) {
	stream := mixedStream(t, 5)
	pr := NewParallelReader(bytes.NewReader(stream), 1)
	defer pr.Close()
	var calls int64
	pr.Observe = func(ns int64) { calls++ } // 1 worker: no data race
	if frames, err := pr.ReadAll(); err != nil || len(frames) != 5 {
		t.Fatalf("%d frames, %v", len(frames), err)
	}
	if calls != 5 {
		t.Errorf("Observe fired %d times, want 5", calls)
	}
}

// TestParallelReaderBatchEquivalence sweeps the batch-size target against
// worker counts: single-frame batches, a few frames per batch, many frames,
// and a target larger than the whole stream (which then hits the
// maxBatchFrames cap — the stream is longer than one maximal batch). Every
// combination must be frame-for-frame identical to the serial Reader.
func TestParallelReaderBatchEquivalence(t *testing.T) {
	stream := mixedStream(t, maxBatchFrames+33)
	want, err := NewReader(bytes.NewReader(stream)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, batchBytes := range []int{1, 300, 4096, 1 << 30} {
		for _, workers := range []int{1, 2, 3, 8} {
			pr := NewParallelReader(bytes.NewReader(stream), workers)
			pr.BatchBytes = batchBytes
			got, err := pr.ReadAll()
			if err != nil {
				t.Fatalf("batch=%d workers=%d: %v", batchBytes, workers, err)
			}
			framesEqual(t, got, want)
			pr.Close()
		}
	}
}

// TestParallelReaderPendingBounded: batches in flight are bounded by the
// reader's credits, not by how evenly the workers run. The first worker to
// finish a decode is held inside the Observe hook (it has not delivered its
// batch yet) while the consumer and the other seven workers run on. A
// reader without the bound lets them decode the whole stream, which releases
// the held worker with ~80 batches parked in pending; the bounded reader
// runs dry at 2*workers+1 batches in flight and the timer releases it.
func TestParallelReaderPendingBounded(t *testing.T) {
	const workers, frames = 8, 90
	stream := mixedStream(t, frames)
	pr := NewParallelReader(bytes.NewReader(stream), workers)
	pr.BatchBytes = 1 // one frame per batch: maximal re-sequencing pressure
	defer pr.Close()
	var decoded atomic.Int64
	all := make(chan struct{})
	pr.Observe = func(int64) {
		switch decoded.Add(1) {
		case 1:
			select {
			case <-all:
			case <-time.After(50 * time.Millisecond):
			}
		case frames:
			close(all)
		}
	}
	if got, err := pr.ReadAll(); err != nil || len(got) != frames {
		t.Fatalf("%d frames, %v", len(got), err)
	}
	if limit := 2*workers + 1; pr.maxPending > limit {
		t.Errorf("pending re-sequencing buffer reached %d entries, bound is %d",
			pr.maxPending, limit)
	}
}

// TestParallelReaderOneWorkerInline: on a single core a pool of one decodes
// on the caller's goroutine — no scanner, worker or closer goroutine is
// started — and still feeds WorkerBusy, Observe and the exact frame sizes.
func TestParallelReaderOneWorkerInline(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	stream := mixedStream(t, 6)
	before := runtime.NumGoroutine()
	pr := NewParallelReader(bytes.NewReader(stream), 1)
	var total int64
	for i := 0; i < 6; i++ {
		_, size, err := pr.ReadFrameSize()
		if err != nil {
			t.Fatal(err)
		}
		total += size
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("frame %d: %d goroutines, %d before the reader existed", i, n, before)
		}
	}
	if _, _, err := pr.ReadFrameSize(); err != io.EOF {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}
	if total != int64(len(stream)) {
		t.Errorf("frame sizes sum to %d, stream is %d bytes", total, len(stream))
	}
	if busy := pr.WorkerBusy(); len(busy) != 1 || busy[0] <= 0 {
		t.Errorf("WorkerBusy = %v, want one worker with decode time", busy)
	}
	pr.Close()
	if _, err := pr.ReadFrame(); err != io.EOF {
		t.Errorf("read after EOF and Close: %v, want the sticky io.EOF", err)
	}
}

// TestParallelReaderOneWorkerAhead: with a second core a pool of one is a
// worker goroutine decoding ahead of the consumer, not the in-line path.
func TestParallelReaderOneWorkerAhead(t *testing.T) {
	if DefaultWorkers(0) == 1 {
		t.Skip("one core: a pool of one decodes in line")
	}
	stream := mixedStream(t, 6)
	pr := NewParallelReader(bytes.NewReader(stream), 1)
	defer pr.Close()
	frames, err := pr.ReadAll()
	if err != nil || len(frames) != 6 {
		t.Fatalf("%d frames, %v", len(frames), err)
	}
	if pr.inline != nil || pr.results == nil {
		t.Error("a pool of one on several cores decoded in line")
	}
	if busy := pr.WorkerBusy(); len(busy) != 1 || busy[0] <= 0 {
		t.Errorf("WorkerBusy = %v, want one worker with decode time", busy)
	}
}

// TestParallelReaderRecycle: a consumer that hands every frame back still
// sees the stream a serial reader decodes — compressed, raw and small frames
// of differing atom counts refilled into one another — and runs on the frames
// in flight: with one-frame batches no more than 2*workers+2 distinct frames
// ever exist, because a decode past the first credits' worth starts only
// after a delivery, and the frame before that delivery is already back.
func TestParallelReaderRecycle(t *testing.T) {
	const frames = 40
	stream := mixedStream(t, frames)
	want, err := NewReader(bytes.NewReader(stream)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		pr := NewParallelReader(bytes.NewReader(stream), workers)
		pr.BatchBytes = 1
		distinct := map[*Frame]bool{}
		for k := 0; ; k++ {
			f, err := pr.ReadFrame()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("workers=%d frame %d: %v", workers, k, err)
			}
			framesEqual(t, []*Frame{f}, want[k:k+1])
			distinct[f] = true
			pr.Recycle(f)
		}
		pr.Close()
		if bound := 2*workers + 2; len(distinct) > bound {
			t.Errorf("workers=%d: %d distinct frames for %d read, want <= %d", workers, len(distinct), frames, bound)
		}
	}
}

// TestDecodeIntoOverwrites: decoding into a used frame leaves nothing of
// its old contents, whether its coordinates must grow or shrink.
func TestDecodeIntoOverwrites(t *testing.T) {
	sc := NewScanner(bytes.NewReader(mixedStream(t, 9)))
	for k := 0; ; k++ {
		blob, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		want, err := decodeBytes(blob)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{0, 7, 100} {
			used := &Frame{Step: -1, Time: 9, Precision: 3, Coords: make([]Vec3, n)}
			for i := range used.Box {
				used.Box[i] = 7
			}
			for i := range used.Coords {
				used.Coords[i] = Vec3{9, 9, 9}
			}
			got, err := decodeBytesInto(blob, used)
			if err != nil || got != used {
				t.Fatalf("frame %d into %d atoms: %p (want %p), %v", k, n, got, used, err)
			}
			framesEqual(t, []*Frame{got}, []*Frame{want})
		}
	}
}

// TestParallelReaderFrameSizesBatched: per-frame encoded sizes survive
// batching — they sum to the stream length at every batch-size target.
func TestParallelReaderFrameSizesBatched(t *testing.T) {
	stream := mixedStream(t, 20)
	for _, batchBytes := range []int{1, 500, 1 << 30} {
		pr := NewParallelReader(bytes.NewReader(stream), 3)
		pr.BatchBytes = batchBytes
		var total int64
		for {
			_, size, err := pr.ReadFrameSize()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			total += size
		}
		if total != int64(len(stream)) {
			t.Errorf("batch=%d: frame sizes sum to %d, stream is %d bytes",
				batchBytes, total, len(stream))
		}
		pr.Close()
	}
}

// TestParallelReaderCloseMidStreamBatched closes the reader while workers
// are mid-batch, at several batch sizes, with a concurrent WorkerBusy poller
// (documented safe at any point). Run under -race this is the shutdown
// data-race check for the batched pipeline.
func TestParallelReaderCloseMidStreamBatched(t *testing.T) {
	stream := mixedStream(t, 60)
	for _, batchBytes := range []int{1, 700, 1 << 30} {
		pr := NewParallelReader(bytes.NewReader(stream), 4)
		pr.BatchBytes = batchBytes
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 100; i++ {
				pr.WorkerBusy()
			}
		}()
		for i := 0; i < 3; i++ {
			if _, err := pr.ReadFrame(); err != nil {
				t.Fatalf("batch=%d frame %d: %v", batchBytes, i, err)
			}
		}
		pr.Close()
		pr.Close() // idempotent
		<-done
		if _, err := pr.ReadFrame(); err == nil {
			t.Fatalf("batch=%d: read after Close succeeded", batchBytes)
		}
	}
}

// TestDecodeAllocsSteadyState asserts the ingest path is zero-copy in the
// steady state: scanner bytes land in one pooled blob, decode scratch comes
// from pools, and the only per-frame heap traffic left is the Frame and its
// Coords (plus amortized slice growth) — about 3 allocations per frame
// serial and under 5 with the batched pool (batch slices and channel items
// amortize across maxBatchFrames).
func TestDecodeAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	const frames = 64
	stream := mixedStream(t, frames)
	serial := func() {
		if _, err := NewReader(bytes.NewReader(stream)).ReadAll(); err != nil {
			t.Fatal(err)
		}
	}
	serial() // warm the pools
	if per := testing.AllocsPerRun(10, serial) / frames; per > 3.5 {
		t.Errorf("serial decode: %.2f allocs/frame, want <= 3.5", per)
	}
	parallel := func() {
		pr := NewParallelReader(bytes.NewReader(stream), 2)
		if _, err := pr.ReadAll(); err != nil {
			t.Fatal(err)
		}
		pr.Close()
	}
	parallel()
	if per := testing.AllocsPerRun(10, parallel) / frames; per > 5 {
		t.Errorf("parallel decode: %.2f allocs/frame, want <= 5", per)
	}
}

// TestDefaultWorkers pins the selection rule: positive passes through,
// non-positive derives from the machine but never below 1.
func TestDefaultWorkers(t *testing.T) {
	if got := DefaultWorkers(3); got != 3 {
		t.Errorf("DefaultWorkers(3) = %d", got)
	}
	if got := DefaultWorkers(0); got < 1 {
		t.Errorf("DefaultWorkers(0) = %d", got)
	}
	if got := DefaultWorkers(-5); got < 1 {
		t.Errorf("DefaultWorkers(-5) = %d", got)
	}
}

// TestDecodeAheadWorkers: the default pool leaves the consumer a core, down
// to a pool of one.
func TestDecodeAheadWorkers(t *testing.T) {
	if got := DecodeAheadWorkers(3); got != 3 {
		t.Errorf("DecodeAheadWorkers(3) = %d", got)
	}
	for _, procs := range []int{1, 2, 3} {
		prev := runtime.GOMAXPROCS(procs)
		got, cores := DecodeAheadWorkers(0), DefaultWorkers(0)
		runtime.GOMAXPROCS(prev)
		if want := max(1, cores-1); got != want {
			t.Errorf("GOMAXPROCS %d (%d cores): DecodeAheadWorkers(0) = %d, want %d", procs, cores, got, want)
		}
	}
}
