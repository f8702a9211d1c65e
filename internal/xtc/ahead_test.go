package xtc

import (
	"bytes"
	"errors"
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

// TestParallelReaderMatchesSerial: frame-for-frame the serial Reader's
// stream, decoded ahead and decoded in line on one core.
func TestParallelReaderMatchesSerial(t *testing.T) {
	stream := mixedStream(t, 9)
	want, err := NewReader(bytes.NewReader(stream)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 9 {
		t.Fatalf("serial read %d frames", len(want))
	}
	for _, procs := range []int{runtime.GOMAXPROCS(0), 1} {
		prev := runtime.GOMAXPROCS(procs)
		pr := NewAheadReader(bytes.NewReader(stream))
		got, err := pr.ReadAll()
		pr.Close()
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		framesEqual(t, got, want)
	}
}

// TestParallelReaderFrameSizes: per-frame encoded sizes sum to the stream
// length (the feed into virtual-time decompression charging).
func TestParallelReaderFrameSizes(t *testing.T) {
	stream := mixedStream(t, 6)
	pr := NewAheadReader(bytes.NewReader(stream))
	defer pr.Close()
	if total := sumFrameSizes(t, pr); total != int64(len(stream)) {
		t.Errorf("frame sizes sum to %d, stream is %d bytes", total, len(stream))
	}
}

// sumFrameSizes reads pr to its end and sums the encoded frame sizes.
func sumFrameSizes(t *testing.T, pr *AheadReader) int64 {
	t.Helper()
	var total int64
	for {
		_, size, err := pr.ReadFrameSize()
		if err == io.EOF {
			return total
		}
		if err != nil {
			t.Fatal(err)
		}
		if size <= 0 {
			t.Fatalf("non-positive frame size %d", size)
		}
		total += size
	}
}

// TestParallelReaderEmptyStream: immediate clean EOF, and EOF is sticky.
func TestParallelReaderEmptyStream(t *testing.T) {
	pr := NewAheadReader(bytes.NewReader(nil))
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
	pr := NewAheadReader(bytes.NewReader(stream))
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
	pr := NewAheadReader(bytes.NewReader(stream))
	if _, err := pr.ReadFrame(); err != nil {
		t.Fatal(err)
	}
	pr.Close()
	pr.Close() // idempotent
	if _, err := pr.ReadFrame(); err == nil {
		t.Fatal("read after Close succeeded")
	}
}

// slowSource is a source whose every Read takes a while and returns at most
// 256 bytes, so a decoder spends most of its time inside one; reading counts
// the Reads in progress.
type slowSource struct {
	r              io.Reader
	reads, reading atomic.Int64
}

func (s *slowSource) Read(p []byte) (int, error) {
	s.reading.Add(1)
	defer s.reading.Add(-1)
	s.reads.Add(1)
	time.Sleep(time.Millisecond)
	return s.r.Read(p[:min(len(p), 256)])
}

// TestAheadReaderStopWaits: Close returns at once, mid-read; Stop returns
// only once the decoder has exited, so no read of the source is in progress
// then and none starts after — what lets a caller reuse the memory behind a
// bytes.Reader it handed in.
func TestAheadReaderStopWaits(t *testing.T) {
	src := &slowSource{r: bytes.NewReader(mixedStream(t, 12))}
	pr := NewAheadReader(src)
	if _, err := pr.ReadFrame(); err != nil {
		t.Fatal(err)
	}
	if pr.out == nil {
		pr.Close()
		t.Skip("one core: decoded in line")
	}
	for deadline := time.Now().Add(5 * time.Second); src.reading.Load() == 0 && time.Now().Before(deadline); {
		time.Sleep(50 * time.Microsecond)
	}
	pr.Stop()
	if n := src.reading.Load(); n != 0 {
		t.Fatalf("%d reads of the source in progress after Stop", n)
	}
	reads := src.reads.Load()
	time.Sleep(20 * time.Millisecond)
	if n := src.reads.Load(); n != reads {
		t.Fatalf("%d reads of the source after Stop", n-reads)
	}
	if _, err := pr.ReadFrame(); err == nil {
		t.Fatal("read after Stop succeeded")
	}
	pr.Stop() // idempotent
}

// TestParallelReaderCloseUnstarted: closing before any read is legal.
func TestParallelReaderCloseUnstarted(t *testing.T) {
	pr := NewAheadReader(bytes.NewReader(mixedStream(t, 2)))
	pr.Close()
	if _, err := pr.ReadFrame(); err == nil {
		t.Fatal("read after Close succeeded")
	}
}

// TestParallelReaderObserve: the per-decode hook fires once per frame.
func TestParallelReaderObserve(t *testing.T) {
	stream := mixedStream(t, 5)
	pr := NewAheadReader(bytes.NewReader(stream))
	defer pr.Close()
	var calls atomic.Int64
	pr.Observe = func(ns int64) { calls.Add(1) }
	if frames, err := pr.ReadAll(); err != nil || len(frames) != 5 {
		t.Fatalf("%d frames, %v", len(frames), err)
	}
	if n := calls.Load(); n != 5 {
		t.Errorf("Observe fired %d times, want 5", n)
	}
}

// lookaheads are the aheadBytes the sweeps below run at: the floor of two
// frames, a handful, and a target larger than the stream, which then hits
// the maxLookahead cap.
var lookaheads = []int{1, 300, 4096, 1 << 40}

// TestParallelReaderBatchEquivalence sweeps the lookahead over a stream
// longer than its cap: every depth is frame-for-frame the serial Reader.
func TestParallelReaderBatchEquivalence(t *testing.T) {
	stream := mixedStream(t, maxLookahead+33)
	want, err := NewReader(bytes.NewReader(stream)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, ahead := range lookaheads {
		pr := NewAheadReader(bytes.NewReader(stream))
		pr.aheadBytes = ahead
		got, err := pr.ReadAll()
		if err != nil {
			t.Fatalf("ahead=%d: %v", ahead, err)
		}
		framesEqual(t, got, want)
		pr.Close()
	}
}

// heldReader returns a reader that has handed out its first frame to a
// consumer that then holds off, once its decoder has stopped: the channel
// full and one more frame decoded, waiting to be sent. decoded counts the
// decodes; nil when the reader decodes in line.
func heldReader(t *testing.T, stream []byte, ahead int) (pr *AheadReader, first *Frame, decoded *atomic.Int64) {
	t.Helper()
	pr = NewAheadReader(bytes.NewReader(stream))
	pr.aheadBytes = ahead
	decoded = new(atomic.Int64)
	pr.Observe = func(int64) { decoded.Add(1) }
	first, err := pr.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if pr.out == nil {
		pr.Close()
		return nil, nil, nil
	}
	for deadline := time.Now().Add(5 * time.Second); decoded.Load() < int64(pr.depth+2) && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // room to overrun
	return pr, first, decoded
}

// TestAheadReaderLookaheadBounded: what is decoded ahead is bounded by the
// channel, not by how long the consumer takes. The consumer holds off after
// the first frame; a decoder without the bound would decode the whole
// stream, the bounded one stops at the channel's depth plus the frame it
// waits to send. Then the consumer drains, handing every frame back, and no
// more than depth+2 distinct frames ever exist: the channel's, the
// decoder's and its own. Closing a held reader instead unblocks the decoder,
// which exits.
func TestAheadReaderLookaheadBounded(t *testing.T) {
	const frames = 90
	stream := mixedStream(t, frames)
	for _, ahead := range lookaheads {
		pr, first, decoded := heldReader(t, stream, ahead)
		if pr == nil {
			t.Skip("one core: decoded in line")
		}
		bound := pr.depth + 2
		if n := decoded.Load(); n != int64(bound) {
			t.Errorf("ahead=%d: %d frames decoded with the consumer held, want the depth %d + 2", ahead, n, pr.depth)
		}
		distinct := map[*Frame]bool{first: true}
		pr.Recycle(first)
		for {
			f, err := pr.ReadFrame()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			distinct[f] = true
			pr.Recycle(f)
		}
		pr.Close()
		if len(distinct) > bound {
			t.Errorf("ahead=%d: %d distinct frames for %d read, want <= depth %d + 2", ahead, len(distinct), frames, pr.depth)
		}

		before := runtime.NumGoroutine()
		pr, _, _ = heldReader(t, stream, ahead)
		pr.Close()
		pr.Close() // idempotent
		if _, err := pr.ReadFrame(); err == nil {
			t.Fatalf("ahead=%d: read after Close succeeded", ahead)
		}
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("ahead=%d: %d goroutines after Close, %d before the reader", ahead, n, before)
		}
	}
}

// TestParallelReaderOneWorkerInline: on a single core the consumer decodes
// in line — no goroutine is started — and the Observe hook and the exact
// frame sizes still work.
func TestParallelReaderOneWorkerInline(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	stream := mixedStream(t, 6)
	before := runtime.NumGoroutine()
	pr := NewAheadReader(bytes.NewReader(stream))
	var decodes int
	pr.Observe = func(int64) { decodes++ } // in line: no data race
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
	if decodes != 6 {
		t.Errorf("Observe fired %d times, want 6", decodes)
	}
	pr.Close()
	if _, err := pr.ReadFrame(); err != io.EOF {
		t.Errorf("read after EOF and Close: %v, want the sticky io.EOF", err)
	}
}

// TestParallelReaderOneWorkerAhead: with a second core the frames after the
// first are decoded on a goroutine ahead of the consumer, with a lookahead
// between its floor and its cap.
func TestParallelReaderOneWorkerAhead(t *testing.T) {
	if DefaultWorkers(0) == 1 {
		t.Skip("one core: decoded in line")
	}
	stream := mixedStream(t, 6)
	pr := NewAheadReader(bytes.NewReader(stream))
	defer pr.Close()
	frames, err := pr.ReadAll()
	if err != nil || len(frames) != 6 {
		t.Fatalf("%d frames, %v", len(frames), err)
	}
	if pr.out == nil || pr.depth < 2 || pr.depth > maxLookahead {
		t.Errorf("decoded in line or at depth %d on several cores", pr.depth)
	}
}

// TestParallelReaderRecycle: a consumer that hands every frame back still
// sees the stream a serial reader decodes — compressed, raw and small frames
// of differing atom counts refilled into one another — and runs on the frames
// in flight: no more than depth+2 distinct frames ever exist.
func TestParallelReaderRecycle(t *testing.T) {
	const frames = 40
	stream := mixedStream(t, frames)
	want, err := NewReader(bytes.NewReader(stream)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, ahead := range []int{1, aheadBytes} {
		pr := NewAheadReader(bytes.NewReader(stream))
		pr.aheadBytes = ahead
		distinct := map[*Frame]bool{}
		for k := 0; ; k++ {
			f, err := pr.ReadFrame()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("ahead=%d frame %d: %v", ahead, k, err)
			}
			framesEqual(t, []*Frame{f}, want[k:k+1])
			distinct[f] = true
			pr.Recycle(f)
		}
		pr.Close()
		if bound := pr.depth + 2; len(distinct) > bound {
			t.Errorf("ahead=%d: %d distinct frames for %d read, want <= %d", ahead, len(distinct), frames, bound)
		}
	}
}

// TestAheadReaderStartAndSharedList: a stream cut into pieces, each read by
// its own reader that is Started before its first read, decodes exactly as
// one serial reader does, and with one RecycleList shared across the
// pieces every piece after the first decodes into frames the pieces before
// it handed back: no more than depth+2 distinct frames for the whole
// stream, however many pieces.
func TestAheadReaderStartAndSharedList(t *testing.T) {
	const frames, piece = 40, 5
	stream := mixedStream(t, frames)
	want, err := NewReader(bytes.NewReader(stream)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	idx, err := BuildIndex(bytes.NewReader(stream), int64(len(stream)))
	if err != nil {
		t.Fatal(err)
	}
	free := NewRecycleList()
	distinct := map[*Frame]bool{}
	depth := 2
	for k := 0; k < frames; k += piece {
		end := idx.Offset(k+piece-1) + idx.Size(k+piece-1)
		pr := NewAheadReaderRecycling(bytes.NewReader(stream[idx.Offset(k):end]), free)
		pr.Start()
		pr.Start() // a second Start finds nothing to do
		for i := k; ; i++ {
			f, err := pr.ReadFrame()
			if err == io.EOF {
				if i != k+piece {
					t.Fatalf("piece at %d ended after %d frames", k, i-k)
				}
				break
			}
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			framesEqual(t, []*Frame{f}, want[i:i+1])
			distinct[f] = true
			pr.Recycle(f)
		}
		pr.Stop()
		depth = max(depth, pr.depth)
	}
	if len(distinct) > depth+2 {
		t.Errorf("%d distinct frames over %d pieces, want <= %d", len(distinct), frames/piece, depth+2)
	}

	pr := NewAheadReader(bytes.NewReader(stream))
	pr.Close()
	pr.Start()
	if f, err := pr.ReadFrame(); f != nil || !errors.Is(err, errAheadClosed) {
		t.Fatalf("Start then read after Close = %v, %v", f, err)
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

// TestParallelReaderFrameSizesBatched: per-frame encoded sizes sum to the
// stream length at every lookahead.
func TestParallelReaderFrameSizesBatched(t *testing.T) {
	stream := mixedStream(t, 20)
	for _, ahead := range lookaheads {
		pr := NewAheadReader(bytes.NewReader(stream))
		pr.aheadBytes = ahead
		if total := sumFrameSizes(t, pr); total != int64(len(stream)) {
			t.Errorf("ahead=%d: frame sizes sum to %d, stream is %d bytes", ahead, total, len(stream))
		}
		pr.Close()
	}
}

// TestParallelReaderCloseMidStreamBatched closes the reader while the
// decoder is mid-stream — blocked on a full channel, or still decoding — at
// every lookahead, with the consumer handing frames back. Run under -race
// this is the shutdown data-race check for the decode-ahead goroutine.
func TestParallelReaderCloseMidStreamBatched(t *testing.T) {
	stream := mixedStream(t, 60)
	for _, ahead := range lookaheads {
		pr := NewAheadReader(bytes.NewReader(stream))
		pr.aheadBytes = ahead
		for i := 0; i < 3; i++ {
			f, err := pr.ReadFrame()
			if err != nil {
				t.Fatalf("ahead=%d frame %d: %v", ahead, i, err)
			}
			pr.Recycle(f)
		}
		pr.Close()
		pr.Close() // idempotent
		if _, err := pr.ReadFrame(); err == nil {
			t.Fatalf("ahead=%d: read after Close succeeded", ahead)
		}
	}
}

// TestDecodeAllocsSteadyState asserts the ingest path is zero-copy in the
// steady state: scanner bytes land in one reused buffer, decode scratch
// comes from pools, and the only per-frame heap traffic left is the Frame
// and its Coords (plus amortized slice growth) — about 3 allocations per
// frame, serial or decoded ahead (channel items are values).
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
	ahead := func() {
		pr := NewAheadReader(bytes.NewReader(stream))
		if _, err := pr.ReadAll(); err != nil {
			t.Fatal(err)
		}
		pr.Close()
	}
	ahead()
	if per := testing.AllocsPerRun(10, ahead) / frames; per > 3.5 {
		t.Errorf("decode ahead: %.2f allocs/frame, want <= 3.5", per)
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
