package core

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/blockfs"
	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/plfs"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/xtc"
)

// assertParallelMatchesSerial ingests the same dataset with Ingest and with
// IngestParallel and requires byte-identical stored output. batch is the
// decode-ahead work item in frames (0 = the default size), queue the value
// of IngestParallel's unused argument.
func assertParallelMatchesSerial(t *testing.T, frames, batch, queue int) {
	t.Helper()
	pdbBytes, traj, _ := testDataset(t, 100, frames)
	batchBytes := 0
	if batch > 0 {
		batchBytes = (batch-1)*len(traj)/frames + 1
	}

	serial, serialSSD, serialHDD := newADA(t, nil, Options{Granularity: Fine})
	srep, err := serial.Ingest("/ds", pdbBytes, bytes.NewReader(traj))
	if err != nil {
		t.Fatal(err)
	}
	par, parSSD, parHDD := newADA(t, nil, Options{Granularity: Fine, DecodeWorkers: 3, DecodeBatchBytes: batchBytes})
	prep, err := par.IngestParallel("/ds", pdbBytes, bytes.NewReader(traj), queue)
	if err != nil {
		t.Fatal(err)
	}

	if prep.Frames != srep.Frames || prep.Compressed != srep.Compressed ||
		prep.Raw != srep.Raw {
		t.Errorf("reports differ: serial %+v parallel %+v", srep, prep)
	}
	if !maps.Equal(prep.Subsets, srep.Subsets) {
		t.Fatalf("subset bytes differ: %v vs %v", prep.Subsets, srep.Subsets)
	}
	// Byte-identical droppings on both backends.
	for _, pair := range []struct{ a, b *vfs.MemFS }{{serialSSD, parSSD}, {serialHDD, parHDD}} {
		err := vfs.Walk(pair.a, "/", func(path string, info vfs.FileInfo) error {
			want, err := vfs.ReadFile(pair.a, path)
			if err != nil {
				return err
			}
			got, err := vfs.ReadFile(pair.b, path)
			if err != nil {
				t.Errorf("%s missing in parallel output: %v", path, err)
				return nil
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s differs between serial and parallel ingest", path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestIngestParallelMatchesSerial(t *testing.T) {
	assertParallelMatchesSerial(t, 6, 0, 2)
}

// TestIngestParallelBatchQueueSweep covers the decode-ahead batching edge
// cases: batch 1 (every frame its own work item), batch sizes that do and do
// not divide the frame count (partial final batch), a batch larger than the
// whole trajectory — and that the queue argument changes nothing.
func TestIngestParallelBatchQueueSweep(t *testing.T) {
	for _, batch := range []int{1, 2, 3, 16} {
		for _, queue := range []int{1, 4} {
			t.Run(fmt.Sprintf("batch=%d/queue=%d", batch, queue), func(t *testing.T) {
				assertParallelMatchesSerial(t, 7, batch, queue)
			})
		}
	}
}

func TestIngestParallelPipelinedTimeIsMaxOfStages(t *testing.T) {
	pdbBytes, traj, _ := testDataset(t, 100, 6)

	envS := sim.NewEnv()
	serial, _, _ := newADA(t, envS, Options{})
	if _, err := serial.Ingest("/ds", pdbBytes, bytes.NewReader(traj)); err != nil {
		t.Fatal(err)
	}
	envP := sim.NewEnv()
	par, _, _ := newADA(t, envP, Options{})
	if _, err := par.IngestParallel("/ds", pdbBytes, bytes.NewReader(traj), 2); err != nil {
		t.Fatal(err)
	}

	// Same total CPU work appears in both profiles (within float
	// reassociation: the parallel path sums per-worker partials) ...
	sd := envS.Profile.Get("storage.cpu.decompress")
	pd := envP.Profile.Get("storage.cpu.decompress")
	if diff := math.Abs(sd - pd); diff > 1e-9*math.Max(sd, 1) {
		t.Errorf("decompress charge: serial %v vs parallel %v", sd, pd)
	}
	// ... but the parallel clock advanced by less than the serial one:
	// the stages overlap.
	if envP.Clock.Now() >= envS.Clock.Now() {
		t.Errorf("parallel ingest clock %.6f not faster than serial %.6f",
			envP.Clock.Now(), envS.Clock.Now())
	}
}

func TestIngestParallelWorkerReport(t *testing.T) {
	pdbBytes, traj, _ := testDataset(t, 100, 7)
	env := sim.NewEnv()
	a, _, _ := newADA(t, env, Options{DecodeWorkers: 3})
	rep, err := a.IngestParallel("/ds", pdbBytes, bytes.NewReader(traj), 2)
	if err != nil {
		t.Fatal(err)
	}
	par := rep.Parallel
	if par == nil {
		t.Fatal("IngestParallel report has no Parallel section")
	}
	if par.DecodeWorkers != 3 {
		t.Errorf("DecodeWorkers = %d, want 3", par.DecodeWorkers)
	}
	if len(par.WorkerDecodeSec) != 3 || len(par.WorkerBusyNS) != 3 || len(par.WorkerUtilization) != 3 {
		t.Fatalf("per-worker slices sized %d/%d/%d, want 3",
			len(par.WorkerDecodeSec), len(par.WorkerBusyNS), len(par.WorkerUtilization))
	}
	// The virtual decode charge is dealt round-robin: its sum must equal
	// the serial decompress total, and with 7 frames over 3 workers every
	// worker got at least two frames of work.
	var sum float64
	for w, sec := range par.WorkerDecodeSec {
		if sec <= 0 {
			t.Errorf("worker %d charged %v virtual seconds", w, sec)
		}
		sum += sec
	}
	if total := env.Profile.Get("storage.cpu.decompress"); math.Abs(sum-total) > 1e-12*math.Max(total, 1) {
		t.Errorf("per-worker virtual decode sums to %v, profile has %v", sum, total)
	}
	maxUtil := 0.0
	for w, u := range par.WorkerUtilization {
		if u < 0 || u > 1 {
			t.Errorf("worker %d utilization %v out of [0,1]", w, u)
		}
		if u > maxUtil {
			maxUtil = u
		}
	}
	if maxUtil != 1 {
		t.Errorf("busiest worker utilization = %v, want 1", maxUtil)
	}
	// Serial ingest reports no pool.
	b, _, _ := newADA(t, nil, Options{})
	srep, err := b.Ingest("/s", pdbBytes, bytes.NewReader(traj))
	if err != nil {
		t.Fatal(err)
	}
	if srep.Parallel != nil {
		t.Errorf("serial ingest unexpectedly reported a decode pool: %+v", srep.Parallel)
	}
}

func TestIngestParallelErrors(t *testing.T) {
	pdbBytes, traj, _ := testDataset(t, 200, 3)
	a, _, _ := newADA(t, nil, Options{})
	// Truncated stream.
	if _, err := a.IngestParallel("/x", pdbBytes, bytes.NewReader(traj[:len(traj)-7]), 2); err == nil {
		t.Error("truncated trajectory should fail")
	}
	// Mismatched structure.
	otherPDB, _, _ := testDataset(t, 400, 1)
	b, _, _ := newADA(t, nil, Options{})
	if _, err := b.IngestParallel("/y", otherPDB, bytes.NewReader(traj), 2); err == nil {
		t.Error("atom mismatch should fail")
	}
	// Garbage structure file.
	c, _, _ := newADA(t, nil, Options{})
	if _, err := c.IngestParallel("/z", []byte("junk"), bytes.NewReader(traj), 2); err == nil {
		t.Error("bad pdb should fail")
	}
}

// TestIngestParallelWriterFailureMidBatch drives a writer into a device-full
// failure partway through a multi-frame decode batch, with frames still
// decoding ahead. The ingest must return the failure promptly, the error
// must name the frame the write failed on, and the decode pool must be gone
// afterwards (every exit path closes the reader).
func TestIngestParallelWriterFailureMidBatch(t *testing.T) {
	pdbBytes, traj, _ := testDataset(t, 50, 200)
	for _, cfg := range []struct{ batch, queue int }{{4, 1}, {1, 1}, {16, 2}} {
		t.Run(fmt.Sprintf("batch=%d/queue=%d", cfg.batch, cfg.queue), func(t *testing.T) {
			dev := device.Device{
				Name: "tiny", ReadBW: 100 * device.MB, WriteBW: 100 * device.MB,
				Capacity: 6 * blockfs.BlockSize,
			}
			containers, err := plfs.New(
				plfs.Backend{Name: "ssd", FS: blockfs.New("tiny-ssd", dev, nil), Mount: "/m1"},
				plfs.Backend{Name: "hdd", FS: vfs.NewMemFS(), Mount: "/m2"},
			)
			if err != nil {
				t.Fatal(err)
			}
			before := runtime.NumGoroutine()
			a := New(containers, nil, Options{
				DecodeWorkers:    4,
				DecodeBatchBytes: (cfg.batch-1)*len(traj)/200 + 1,
			})
			_, err = a.IngestParallel("/ds", pdbBytes, bytes.NewReader(traj), cfg.queue)
			if err == nil {
				t.Fatal("parallel ingest onto a full device should fail")
			}
			if !errors.Is(err, blockfs.ErrNoSpace) {
				t.Errorf("err = %v, want ErrNoSpace in the chain", err)
			}
			if !regexp.MustCompile(`frame \d+`).MatchString(err.Error()) {
				t.Errorf("err = %q, want the failing frame index in the message", err)
			}
			// Close is asynchronous: the pool drains within moments.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("%d goroutines after the failed ingest, %d before it", n, before)
			}
		})
	}
}

// TestIngestParallelProgressNotBatchLagged covers the decode-error-mid-batch
// report: frames decoded ahead in the same work item as the failing one must
// all be written before the error surfaces, so the progress gauge and the
// error's frame index name the failing frame itself, not the start of its
// decode batch.
func TestIngestParallelProgressNotBatchLagged(t *testing.T) {
	const batch, frames = 16, 21
	pdbBytes, traj, _ := testDataset(t, 100, frames)
	reg := metrics.NewRegistry()
	opts := Options{Metrics: reg, DecodeWorkers: 2, DecodeBatchBytes: (batch-1)*len(traj)/frames + 1}
	a, _, _ := newADA(t, nil, opts)
	// Truncating the stream corrupts the final frame: the decode error lands
	// at frame 20, five frames into the second batch.
	_, err := a.IngestParallel("/ds", pdbBytes, bytes.NewReader(traj[:len(traj)-7]), 2)
	if err == nil {
		t.Fatal("truncated trajectory should fail")
	}
	if want := fmt.Sprintf("frame %d", frames-1); !strings.Contains(err.Error(), want) {
		t.Errorf("err = %q, want the mid-batch failing frame (%s) named", err, want)
	}
	if got := reg.Snapshot().Gauges["ingest.progress_frames"]; got != frames-1 {
		t.Errorf("ingest.progress_frames = %d after error at frame %d, want %d (not the last batch boundary %d)",
			got, frames-1, frames-1, batch)
	}
	// A clean run leaves the gauge at the full frame count, matching the
	// report.
	b, _, _ := newADA(t, nil, opts)
	rep, err := b.IngestParallel("/ds2", pdbBytes, bytes.NewReader(traj), 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Frames != frames || reg.Snapshot().Gauges["ingest.progress_frames"] != frames {
		t.Errorf("Frames = %d, progress gauge = %d, want %d",
			rep.Frames, reg.Snapshot().Gauges["ingest.progress_frames"], frames)
	}
}

// TestSubsetWriterFrameAllocs bounds the steady-state allocation cost of the
// per-subset write path: with the SubsetInto scratch and pooled encode
// buffers, splitting and appending one frame must not allocate per frame
// (modulo amortized growth of the output file).
func TestSubsetWriterFrameAllocs(t *testing.T) {
	pdbBytes, traj, _ := testDataset(t, 200, 2)
	a, _, _ := newADA(t, nil, Options{})
	st, err := a.prepareIngest("/ds", pdbBytes, false)
	if err != nil {
		t.Fatal(err)
	}
	defer st.abort()
	frame, err := xtc.NewReader(bytes.NewReader(traj)).ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	sw := st.writers[0]
	for i := 0; i < 4; i++ {
		if err := sw.writeFrame(frame); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(100, func() {
		if err := sw.writeFrame(frame); err != nil {
			t.Fatal(err)
		}
	})
	// MemFS doubles its backing array as the dropping grows, so a fraction
	// of runs see one allocation; anything at or above one alloc per frame
	// means the scratch reuse regressed.
	if avg >= 1 {
		t.Errorf("subsetWriter.writeFrame steady state = %.2f allocs/frame, want < 1", avg)
	}
}

func TestIngestParallelSubsetReadable(t *testing.T) {
	pdbBytes, traj, _ := testDataset(t, 100, 4)
	a, _, _ := newADA(t, nil, Options{})
	if _, err := a.IngestParallel("/ds", pdbBytes, bytes.NewReader(traj), 3); err != nil {
		t.Fatal(err)
	}
	sr, err := a.OpenSubsetAt("/ds", TagProtein)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	if sr.Frames() != 4 {
		t.Errorf("frames = %d", sr.Frames())
	}
	f, err := sr.ReadFrameAt(3)
	if err != nil || f.NAtoms() != sr.Ranges.Count() {
		t.Errorf("frame = %v, %v", f, err)
	}
}
