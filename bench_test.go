// Root benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation, plus ablation benches for the design choices
// DESIGN.md calls out. Figures run the analytic engine over the measured
// data model (real codec sizes); Fig 8 and the ablations run the live
// pipeline. Virtual-time results are reported as custom metrics
// (vsec = virtual seconds on the experiment clock) alongside the real
// ns/op of executing the pipeline itself.
package ada_test

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/blockfs"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/gpcr"
	"repro/internal/metrics"
	"repro/internal/osfs"
	"repro/internal/placement"
	"repro/internal/platform"
	"repro/internal/plfs"
	"repro/internal/rangelist"
	"repro/internal/rpc"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/xdr"
	"repro/internal/xtc"
)

var (
	modelOnce sync.Once
	model     *bench.DataModel
	modelErr  error
)

// fullConfig measures the full-size (43.5k-atom) data model once per
// process with the real codec.
func fullConfig(b *testing.B) *bench.Config {
	b.Helper()
	modelOnce.Do(func() {
		model, modelErr = bench.Measure(gpcr.Default(), 6)
	})
	if modelErr != nil {
		b.Fatal(modelErr)
	}
	return &bench.Config{Model: model, Scale: 20, MeasuredFrames: 80}
}

// benchExperiment runs one table/figure end to end per iteration.
func benchExperiment(b *testing.B, id string) {
	cfg := fullConfig(b)
	e, err := bench.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var tbl *bench.Table
	for i := 0; i < b.N; i++ {
		tbl, err = e.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(tbl.Rows) == 0 {
		b.Fatal("empty table")
	}
}

func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkFig7a(b *testing.B)  { benchExperiment(b, "fig7a") }
func BenchmarkFig7b(b *testing.B)  { benchExperiment(b, "fig7b") }
func BenchmarkFig7c(b *testing.B)  { benchExperiment(b, "fig7c") }
func BenchmarkFig8(b *testing.B)   { benchExperiment(b, "fig8") }
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }
func BenchmarkFig9a(b *testing.B)  { benchExperiment(b, "fig9a") }
func BenchmarkFig9b(b *testing.B)  { benchExperiment(b, "fig9b") }
func BenchmarkFig9c(b *testing.B)  { benchExperiment(b, "fig9c") }
func BenchmarkTable5(b *testing.B) { benchExperiment(b, "table5") }
func BenchmarkTable6(b *testing.B) { benchExperiment(b, "table6") }
func BenchmarkFig10a(b *testing.B) { benchExperiment(b, "fig10a") }
func BenchmarkFig10b(b *testing.B) { benchExperiment(b, "fig10b") }
func BenchmarkFig10c(b *testing.B) { benchExperiment(b, "fig10c") }
func BenchmarkFig10d(b *testing.B) { benchExperiment(b, "fig10d") }

// Extension experiments (not paper figures; see DESIGN.md).
func BenchmarkExtPlayback(b *testing.B) { benchExperiment(b, "ext-playback") }
func BenchmarkExtAmortize(b *testing.B) { benchExperiment(b, "ext-amortize") }

// BenchmarkTurnaroundScenarios reports the headline Fig 7b comparison as
// virtual seconds per scenario at 5,006 frames on the SSD-server model.
func BenchmarkTurnaroundScenarios(b *testing.B) {
	cfg := fullConfig(b)
	for _, sc := range bench.Scenarios {
		b.Run(string(sc), func(b *testing.B) {
			p, err := platform.NewSSDServer()
			if err != nil {
				b.Fatal(err)
			}
			var pt bench.Point
			for i := 0; i < b.N; i++ {
				pt = bench.RunAnalytic(p, cfg.Model, sc, 5006)
			}
			b.ReportMetric(pt.Turnaround, "vsec")
			b.ReportMetric(float64(pt.MemoryPeak)/1e6, "vMB")
		})
	}
}

// --- Real-codec benchmarks ---------------------------------------------

// stageFrame builds one full-size frame and its encoding.
func stageFrame(b *testing.B) (*xtc.Frame, []byte) {
	b.Helper()
	sys, err := gpcr.Default().Build()
	if err != nil {
		b.Fatal(err)
	}
	f := sys.InitialFrame()
	w := xdr.NewWriter(1 << 21)
	if err := f.AppendEncoded(w); err != nil {
		b.Fatal(err)
	}
	return f, w.Bytes()
}

// BenchmarkXTCEncode measures the real compressor on the full 43.5k-atom
// system (MB/s of raw coordinate data).
func BenchmarkXTCEncode(b *testing.B) {
	f, _ := stageFrame(b)
	w := xdr.NewWriter(1 << 21)
	b.ReportAllocs()
	b.SetBytes(int64(f.NAtoms() * 12))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Reset()
		if err := f.AppendEncoded(w); err != nil {
			b.Fatal(err)
		}
	}
	reportCPUs(b)
}

// BenchmarkSubsetWrite measures the ingest sequencer's per-frame split and
// encode: one full 43.5k-atom frame into the default coarse subsets (p and
// m), each encoded raw straight from the full frame's coordinates run by
// run (xtc.Frame.AppendRawSubset) and checksummed as the subset
// writer's tee does, with no file behind it. MB/s is the full frame's raw
// size.
func BenchmarkSubsetWrite(b *testing.B) {
	sys, err := gpcr.Default().Build()
	if err != nil {
		b.Fatal(err)
	}
	f := sys.InitialFrame()
	tags := core.BuildLabels(sys.Structure).TagRanges(core.Coarse)
	var subsets [][]rangelist.Range
	for _, tag := range []string{core.TagMisc, core.TagProtein} {
		subsets = append(subsets, tags[tag].Ranges())
	}
	buf := make([]byte, 0, xtc.RawFrameSize(f.NAtoms()))
	b.ReportAllocs()
	b.SetBytes(xtc.RawFrameSize(f.NAtoms()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, runs := range subsets {
			if buf, err = f.AppendRawSubset(buf[:0], runs); err != nil {
				b.Fatal(err)
			}
			xtc.CRC32C(buf)
		}
	}
	reportCPUs(b)
}

// reportCPUs records the scheduler width as a benchmark metric. The CI
// regression gate (cmd/benchjson -compare) uses it to undo the -GOMAXPROCS
// name suffix when diffing runs from different machines.
func reportCPUs(b *testing.B) {
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "cpus")
}

// BenchmarkXTCDecode measures the real decompressor — the rate that
// dominates the paper's turnaround times. fresh decodes each frame into a
// new one, as a reader whose caller keeps its frames does, so about half of
// its time is the 522 kB frame's allocation and first touch; reused decodes
// into one frame again and again, as ingest's recycled frames do, and is
// the kernel's own speed.
func BenchmarkXTCDecode(b *testing.B) {
	f, raw := stageFrame(b)
	into := &xtc.Frame{}
	for _, arm := range []struct {
		name   string
		decode func() error
	}{
		{"fresh", func() error { _, err := xtc.DecodeFrame(xdr.NewReader(raw)); return err }},
		{"reused", func() error { _, err := xtc.DecodeFrameBytesInto(raw, into); return err }},
	} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(f.NAtoms() * 12))
			for i := 0; i < b.N; i++ {
				if err := arm.decode(); err != nil {
					b.Fatal(err)
				}
			}
			reportCPUs(b)
		})
	}
}

// BenchmarkXTCPrecision sweeps the quantization precision: higher precision
// costs more bits per atom and more codec time. Reported bpa = encoded bits
// per atom.
func BenchmarkXTCPrecision(b *testing.B) {
	sys, err := gpcr.Scaled(4).Build()
	if err != nil {
		b.Fatal(err)
	}
	base := sys.InitialFrame()
	for _, prec := range []float32{100, 1000, 10000, 100000} {
		b.Run(fmt.Sprintf("prec-%g", prec), func(b *testing.B) {
			f := base.Clone()
			f.Precision = prec
			w := xdr.NewWriter(1 << 21)
			b.SetBytes(int64(f.NAtoms() * 12))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Reset()
				if err := f.AppendEncoded(w); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(w.Len()*8)/float64(f.NAtoms()), "bpa")
		})
	}
}

// --- Stream decode benches ------------------------------------------------

// streamDecodeInput builds a jittered multi-frame compressed stream once per
// process, plus its total raw coordinate payload for MB/s reporting.
var (
	decOnce   sync.Once
	decStream []byte
	decRaw    int64
	decErr    error
)

func streamDecodeInput(b *testing.B) ([]byte, int64) {
	b.Helper()
	decOnce.Do(func() {
		sys, err := gpcr.Scaled(4).Build()
		if err != nil {
			decErr = err
			return
		}
		f := sys.InitialFrame()
		rng := rand.New(rand.NewSource(5))
		var buf bytes.Buffer
		w := xtc.NewWriter(&buf)
		// 64 frames ≈ 2.8 MB encoded (8.4 MB raw): about the 3 MiB an
		// AheadReader decodes ahead.
		const frames = 64
		for k := 0; k < frames; k++ {
			f.Step = int32(k)
			for i := range f.Coords {
				for d := 0; d < 3; d++ {
					f.Coords[i][d] += float32(rng.NormFloat64() * 0.005)
				}
			}
			if err := w.WriteFrame(f); err != nil {
				decErr = err
				return
			}
		}
		decStream = buf.Bytes()
		decRaw = int64(frames * f.NAtoms() * 12)
	})
	if decErr != nil {
		b.Fatal(decErr)
	}
	return decStream, decRaw
}

// BenchmarkStreamDecode measures multi-frame stream decode throughput
// through the serial Reader. The stream is fully preloaded in memory
// (bytes.Reader), so the numbers are pure decode with no I/O confound, and
// MB/s is raw coordinate payload. What ingest gains from decoding ahead
// shows in BenchmarkIngestParallel and in the end-to-end benchmark's
// ingest_mbps.
func BenchmarkStreamDecode(b *testing.B) {
	stream, raw := streamDecodeInput(b)
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(raw)
		for i := 0; i < b.N; i++ {
			if _, err := xtc.NewReader(bytes.NewReader(stream)).ReadAll(); err != nil {
				b.Fatal(err)
			}
		}
		reportCPUs(b)
	})
}

// loopbackCluster ingests a 43.5k-atom dataset of the given frames, once,
// as /g onto three loopback rpc storage nodes (osfs in temporary
// directories) at replication 2.
func loopbackCluster(b *testing.B, frames int) *core.ADA {
	b.Helper()
	pdbBytes, traj, err := generate(gpcr.Default(), frames)
	if err != nil {
		b.Fatal(err)
	}
	a := loopbackNodes(b)
	if _, err := a.Ingest("/g", pdbBytes, bytes.NewReader(traj)); err != nil {
		b.Fatal(err)
	}
	return a
}

// loopbackNodes is an empty store on three loopback rpc storage nodes (osfs
// in temporary directories) at replication 2.
func loopbackNodes(b *testing.B) *core.ADA {
	b.Helper()
	tbl := &placement.Table{Version: 1, Replication: 2}
	nodes := map[string]vfs.FS{}
	for _, name := range []string{"n1", "n2", "n3"} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		base, err := osfs.New(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		srv := rpc.NewServer(base, nil)
		srv.SetMetrics(nil)
		go srv.Serve(ln)
		cl := rpc.DialLazy(ln.Addr().String(), nil, rpc.DefaultRetryPolicy())
		b.Cleanup(func() { cl.Close(); srv.Close() })
		tbl.Nodes = append(tbl.Nodes, placement.Node{Name: name, Addr: ln.Addr().String()})
		nodes[name] = cl
	}
	clu, err := placement.NewCluster(tbl, nodes, placement.Config{})
	if err != nil {
		b.Fatal(err)
	}
	store, err := plfs.New(plfs.Backend{Name: "clu", FS: clu, Mount: "/clu"})
	if err != nil {
		b.Fatal(err)
	}
	return core.New(store, nil, core.Options{})
}

// BenchmarkSubsetLoad is `mol addfile … tag p` below vmd: OpenSubset of the
// protein subset and every ReadFrame of the loopback cluster's dataset —
// the read path the end-to-end benchmark's turnaround_p_s times, without
// the harness. MB/s is the subset's decoded coordinates. The frames read
// are kept, as a viewer keeps them: the decode side of the overlap includes
// the memory a loaded trajectory takes.
func BenchmarkSubsetLoad(b *testing.B) {
	const frames = 100
	a := loopbackCluster(b, frames)
	load := func() (raw int64) {
		sr, err := a.OpenSubset("/g", core.TagProtein)
		if err != nil {
			b.Fatal(err)
		}
		defer sr.Close()
		kept := make([]*xtc.Frame, 0, frames)
		for {
			f, err := sr.ReadFrame()
			if err == io.EOF {
				if len(kept) != frames {
					b.Fatalf("read %d frames, want %d", len(kept), frames)
				}
				return raw
			}
			if err != nil {
				b.Fatal(err)
			}
			kept = append(kept, f)
			raw += int64(12 * f.NAtoms())
		}
	}
	b.SetBytes(load())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		load()
	}
	b.StopTimer()
	reportCPUs(b)
}

// BenchmarkFullLoad is the "ADA (all)" load below vmd: OpenFull of the
// loopback cluster's dataset and every ReadFrame, each subset's stored bytes
// converted straight into the full frame — the read path the end-to-end
// benchmark's turnaround_all_s times, without the harness. MB/s is the full
// frames' decoded coordinates, and the frames read are kept, as a viewer
// keeps them.
func BenchmarkFullLoad(b *testing.B) {
	const frames = 100
	a := loopbackCluster(b, frames)
	load := func() (raw int64) {
		fr, err := a.OpenFull("/g")
		if err != nil {
			b.Fatal(err)
		}
		defer fr.Close()
		kept := make([]*xtc.Frame, 0, frames)
		for {
			f, err := fr.ReadFrame()
			if err == io.EOF {
				if len(kept) != frames {
					b.Fatalf("read %d frames, want %d", len(kept), frames)
				}
				return raw
			}
			if err != nil {
				b.Fatal(err)
			}
			kept = append(kept, f)
			raw += int64(12 * f.NAtoms())
		}
	}
	b.SetBytes(load())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		load()
	}
	b.StopTimer()
	reportCPUs(b)
}

// BenchmarkFabricPlayback is a cold viewer below vmd: OpenSubsetAt of the
// protein subset on the loopback cluster, a fresh serve fabric whose cache
// holds half the subset, and every ReadFrameAt in order through it — the
// path the end-to-end benchmark's playback_cold times, without the harness.
// The fabric reads ahead of the viewer, so a frame's fetch and decode
// overlap the wait for the one before. MB/s is the subset's decoded
// coordinates.
func BenchmarkFabricPlayback(b *testing.B) {
	const frames = 100
	a := loopbackCluster(b, frames)
	play := func() (raw int64) {
		rr, err := a.OpenSubsetAt("/g", core.TagProtein)
		if err != nil {
			b.Fatal(err)
		}
		defer rr.Close()
		fab := serve.New(serve.Config{
			CacheBytes: frames / 2 * xtc.RawFrameSize(rr.Info.NAtoms),
			Metrics:    metrics.NewRegistry(),
		})
		defer fab.Close()
		h := fab.Open("viewer", "/g", core.TagProtein, rr.Info.NAtoms, rr)
		for i := 0; i < frames; i++ {
			f, err := h.ReadFrameAt(i)
			if err != nil {
				b.Fatal(err)
			}
			raw += int64(12 * f.NAtoms())
		}
		return raw
	}
	b.SetBytes(play())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		play()
	}
	b.StopTimer()
	reportCPUs(b)
}

// BenchmarkLiveAppend is a running simulation's ingest: a live session on
// the loopback nodes taking 300 frames of the 43.5k-atom system in
// five-frame Appends, each checkpointed and its head published, then Seal —
// the producer side of the end-to-end benchmark's live_tail, without the
// tailer. MB/s is the frames' decoded coordinates; B/op is what the session
// allocates. Each sealed dataset is removed untimed.
func BenchmarkLiveAppend(b *testing.B) {
	const frames, batch = 300, 5
	pdbBytes, traj, err := generate(gpcr.Default(), frames)
	if err != nil {
		b.Fatal(err)
	}
	idx, err := xtc.BuildIndex(bytes.NewReader(traj), int64(len(traj)))
	if err != nil {
		b.Fatal(err)
	}
	var batches [][]byte
	for i := 0; i < frames; i += batch {
		end := idx.Offset(i+batch-1) + idx.Size(i+batch-1)
		batches = append(batches, traj[idx.Offset(i):end])
	}
	a := loopbackNodes(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		li, err := a.OpenLiveIngest("/live", pdbBytes)
		if err != nil {
			b.Fatal(err)
		}
		for _, bt := range batches {
			if _, err := li.Append(bt); err != nil {
				b.Fatal(err)
			}
		}
		rep, err := li.Seal()
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		b.SetBytes(rep.Raw)
		if err := a.Remove("/live"); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	reportCPUs(b)
}

// --- Ablation benches ----------------------------------------------------

// ablationDataset builds a small dataset once.
var (
	ablOnce sync.Once
	ablPDB  []byte
	ablXTC  []byte
)

func ablationDataset(b *testing.B) ([]byte, []byte) {
	b.Helper()
	ablOnce.Do(func() {
		var err error
		ablPDB, ablXTC, err = generate(gpcr.Scaled(20), 40)
		if err != nil {
			b.Fatal(err)
		}
	})
	return ablPDB, ablXTC
}

func generate(cfg gpcr.Config, frames int) ([]byte, []byte, error) {
	p, err := platform.NewSSDServer()
	if err != nil {
		return nil, nil, err
	}
	ds, err := p.Stage("g", cfg, frames)
	if err != nil {
		return nil, nil, err
	}
	traj, err := vfs.ReadFile(p.Traditional, ds.CompressedPath)
	if err != nil {
		return nil, nil, err
	}
	return ds.PDB, traj, nil
}

// BenchmarkAblationOffload compares where the pre-processing CPU burns:
// storage-side (ADA ingest once, cheap tagged reads) vs compute-side
// (decompress + scan on every load). Reported vsec is the compute node's
// CPU time per load.
func BenchmarkAblationOffload(b *testing.B) {
	b.Run("compute-side", func(b *testing.B) {
		var cpu float64
		for i := 0; i < b.N; i++ {
			p, err := platform.NewSSDServer()
			if err != nil {
				b.Fatal(err)
			}
			ds, err := p.Stage("g", gpcr.Scaled(20), 40)
			if err != nil {
				b.Fatal(err)
			}
			mp, err := bench.RunMeasured(p, ds, bench.CBase)
			if err != nil {
				b.Fatal(err)
			}
			cpu = mp.Profile.TotalPrefix("compute.cpu.decompress") +
				mp.Profile.TotalPrefix("compute.cpu.scan")
		}
		b.ReportMetric(cpu, "vsec")
	})
	b.Run("storage-side", func(b *testing.B) {
		var cpu float64
		for i := 0; i < b.N; i++ {
			p, err := platform.NewSSDServer()
			if err != nil {
				b.Fatal(err)
			}
			ds, err := p.Stage("g", gpcr.Scaled(20), 40)
			if err != nil {
				b.Fatal(err)
			}
			mp, err := bench.RunMeasured(p, ds, bench.ADAProtein)
			if err != nil {
				b.Fatal(err)
			}
			cpu = mp.Profile.TotalPrefix("compute.cpu.decompress") +
				mp.Profile.TotalPrefix("compute.cpu.scan")
		}
		b.ReportMetric(cpu, "vsec")
	})
}

// BenchmarkAblationTags compares ingest cost and subset sizes at the two
// categorizer granularities.
func BenchmarkAblationTags(b *testing.B) {
	pdbBytes, traj := ablationDataset(b)
	for _, g := range []core.Granularity{core.Coarse, core.Fine} {
		b.Run(g.String(), func(b *testing.B) {
			b.ReportAllocs()
			var subsets int
			for i := 0; i < b.N; i++ {
				store, err := plfs.New(
					plfs.Backend{Name: "ssd", FS: vfs.NewMemFS(), Mount: "/m1"},
					plfs.Backend{Name: "hdd", FS: vfs.NewMemFS(), Mount: "/m2"},
				)
				if err != nil {
					b.Fatal(err)
				}
				a := core.New(store, nil, core.Options{Granularity: g})
				rep, err := a.Ingest("/g", pdbBytes, bytes.NewReader(traj))
				if err != nil {
					b.Fatal(err)
				}
				subsets = len(rep.Subsets)
			}
			b.ReportMetric(float64(subsets), "subsets")
		})
	}
}

// BenchmarkAblationPlacement compares the virtual read time of the protein
// subset when it lands on SSD vs HDD — the hybrid placement decision.
func BenchmarkAblationPlacement(b *testing.B) {
	pdbBytes, traj := ablationDataset(b)
	cases := []struct {
		name string
		dev  device.Device
	}{
		{"protein-on-ssd", device.NVMe256GB()},
		{"protein-on-hdd", device.WDBlue1TB()},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var vsec float64
			for i := 0; i < b.N; i++ {
				env := sim.NewEnv()
				fast := blockfs.New("be", c.dev, env)
				store, err := plfs.New(plfs.Backend{Name: "be", FS: fast, Mount: "/m"})
				if err != nil {
					b.Fatal(err)
				}
				a := core.New(store, env, core.Options{})
				if _, err := a.Ingest("/g", pdbBytes, bytes.NewReader(traj)); err != nil {
					b.Fatal(err)
				}
				start := env.Clock.Now()
				sr, err := a.OpenSubset("/g", core.TagProtein)
				if err != nil {
					b.Fatal(err)
				}
				for {
					if _, err := sr.ReadFrame(); err != nil {
						break
					}
				}
				sr.Close()
				vsec = env.Clock.Now() - start
			}
			b.ReportMetric(vsec, "vsec")
		})
	}
}

// BenchmarkAblationParallelIngest compares the serial ingest loop's virtual
// clock against the pipelined one's (the decode stage overlapped with each
// subset's categorization): real ns/op for the host, vsec for the modeled
// multi-core storage node, which is the same on every host.
func BenchmarkAblationParallelIngest(b *testing.B) {
	pdbBytes, traj := ablationDataset(b)
	mkADA := func(env *sim.Env) *core.ADA {
		store, err := plfs.New(
			plfs.Backend{Name: "ssd", FS: vfs.NewMemFS(), Mount: "/m1"},
			plfs.Backend{Name: "hdd", FS: vfs.NewMemFS(), Mount: "/m2"},
		)
		if err != nil {
			b.Fatal(err)
		}
		return core.New(store, env, core.Options{Granularity: core.Fine})
	}
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		var vsec float64
		for i := 0; i < b.N; i++ {
			env := sim.NewEnv()
			if _, err := mkADA(env).Ingest("/g", pdbBytes, bytes.NewReader(traj)); err != nil {
				b.Fatal(err)
			}
			vsec = env.Clock.Now()
		}
		b.ReportMetric(vsec, "vsec")
	})
	b.Run("pipelined", func(b *testing.B) {
		b.ReportAllocs()
		var vsec float64
		for i := 0; i < b.N; i++ {
			env := sim.NewEnv()
			if _, err := mkADA(env).IngestParallel("/g", pdbBytes, bytes.NewReader(traj), 4); err != nil {
				b.Fatal(err)
			}
			vsec = env.Clock.Now()
		}
		b.ReportMetric(vsec, "vsec")
	})
}

// BenchmarkIngestParallel measures end-to-end ingest wire speed (MB/s of
// decompressed trajectory data through categorize + split + write) over
// in-memory backends, through both entry points of the one ingest loop
// (they differ only in virtual-clock charging, so the rows should agree).
// This is the CI-gated number for the wire-speed ingest work: it exercises
// decode-ahead, the fused encode path and the allocation-free subset split
// together.
func BenchmarkIngestParallel(b *testing.B) {
	pdbBytes, traj := ablationDataset(b)
	mkADA := func() *core.ADA {
		store, err := plfs.New(
			plfs.Backend{Name: "ssd", FS: vfs.NewMemFS(), Mount: "/m1"},
			plfs.Backend{Name: "hdd", FS: vfs.NewMemFS(), Mount: "/m2"},
		)
		if err != nil {
			b.Fatal(err)
		}
		return core.New(store, nil, core.Options{Granularity: core.Fine})
	}
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rep, err := mkADA().Ingest("/g", pdbBytes, bytes.NewReader(traj))
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.SetBytes(rep.Raw)
			}
		}
		reportCPUs(b)
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rep, err := mkADA().IngestParallel("/g", pdbBytes, bytes.NewReader(traj), 4)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.SetBytes(rep.Raw)
			}
		}
		reportCPUs(b)
	})
}

// BenchmarkIngestOverhead prices the runtime-metrics layer: the same
// end-to-end ingest over bare MemFS backends ("raw") and with every
// storage layer instrumented ("instrumented" — vfs.Instrument wrappers on
// both backends plus container and ingest counters reporting into a
// private registry). Both variants use a fresh registry for the
// always-on ingest counters, so the delta isolates the instrumentation
// tax; the acceptance bar is <5% wall time.
func BenchmarkIngestOverhead(b *testing.B) {
	pdbBytes, traj := ablationDataset(b)
	run := func(b *testing.B, instrumented bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			reg := metrics.NewRegistry()
			mkFS := func(name string) vfs.FS {
				var fsys vfs.FS = vfs.NewMemFS()
				if instrumented {
					fsys = vfs.Instrument(fsys, reg, "fs."+name)
				}
				return fsys
			}
			store, err := plfs.New(
				plfs.Backend{Name: "ssd", FS: mkFS("ssd"), Mount: "/m1"},
				plfs.Backend{Name: "hdd", FS: mkFS("hdd"), Mount: "/m2"},
			)
			if err != nil {
				b.Fatal(err)
			}
			store.SetMetrics(reg)
			a := core.New(store, nil, core.Options{Metrics: reg})
			if _, err := a.Ingest("/g", pdbBytes, bytes.NewReader(traj)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("raw", func(b *testing.B) { run(b, false) })
	b.Run("instrumented", func(b *testing.B) { run(b, true) })
}

// BenchmarkChecksumOverhead prices the durability layer's end-to-end
// checksums: the same serial ingest with CRC32C disabled ("off") and
// enabled ("on" — per-frame index checksums, whole-stream subset CRC32Cs,
// and the manifest integrity map). The acceptance bar is <5% wall time.
func BenchmarkChecksumOverhead(b *testing.B) {
	pdbBytes, traj := ablationDataset(b)
	run := func(b *testing.B, disabled bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			store, err := plfs.New(
				plfs.Backend{Name: "ssd", FS: vfs.NewMemFS(), Mount: "/m1"},
				plfs.Backend{Name: "hdd", FS: vfs.NewMemFS(), Mount: "/m2"},
			)
			if err != nil {
				b.Fatal(err)
			}
			a := core.New(store, nil, core.Options{
				Metrics:          metrics.NewRegistry(),
				DisableChecksums: disabled,
			})
			if _, err := a.Ingest("/g", pdbBytes, bytes.NewReader(traj)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, true) })
	b.Run("on", func(b *testing.B) { run(b, false) })
}

// BenchmarkAblationStoreCompressed compares ADA's decompress-on-ingest
// design against the alternative of storing the compressed original and
// paying decompression on every read (approximated by the C path, which is
// exactly that read-and-decompress work).
func BenchmarkAblationStoreCompressed(b *testing.B) {
	modes := []struct {
		name string
		sc   bench.Scenario
	}{
		{"store-decompressed", bench.ADAProtein},
		{"store-compressed", bench.CBase},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			var vsec float64
			for i := 0; i < b.N; i++ {
				p, err := platform.NewSSDServer()
				if err != nil {
					b.Fatal(err)
				}
				ds, err := p.Stage("g", gpcr.Scaled(20), 40)
				if err != nil {
					b.Fatal(err)
				}
				mp, err := bench.RunMeasured(p, ds, m.sc)
				if err != nil {
					b.Fatal(err)
				}
				vsec = mp.Turnaround
			}
			b.ReportMetric(vsec, "vsec")
		})
	}
}
