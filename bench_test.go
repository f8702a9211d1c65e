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
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/blockfs"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/gpcr"
	"repro/internal/metrics"
	"repro/internal/plfs"
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
			p, err := cluster.NewSSDServer()
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

// reportCPUs records the scheduler width as a benchmark metric. The CI
// regression gate (cmd/benchjson -compare) uses it twice: to undo the
// -GOMAXPROCS name suffix when diffing runs from different machines, and to
// skip speedup assertions the runner lacks the cores to satisfy.
func reportCPUs(b *testing.B) {
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "cpus")
}

// BenchmarkXTCDecode measures the real decompressor — the rate that
// dominates the paper's turnaround times.
func BenchmarkXTCDecode(b *testing.B) {
	f, raw := stageFrame(b)
	b.ReportAllocs()
	b.SetBytes(int64(f.NAtoms() * 12))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xtc.DecodeFrame(xdr.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
	reportCPUs(b)
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

// --- Parallel decode benches ----------------------------------------------

// decodeStream builds a jittered multi-frame compressed stream once per
// process, plus its total raw coordinate payload for MB/s reporting.
var (
	decOnce   sync.Once
	decStream []byte
	decRaw    int64
	decErr    error
)

func parallelDecodeStream(b *testing.B) ([]byte, int64) {
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
		// 64 frames ≈ 9 MB encoded: enough for several 256 KB decode
		// batches per worker, so the batched pipeline is actually
		// exercised rather than degenerating to one work item.
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

// BenchmarkParallelDecode measures multi-frame stream decode throughput:
// the serial Reader baseline against ParallelReader at 1/2/4/8 workers.
// The stream is fully preloaded in memory (bytes.Reader), so the numbers
// are pure decode with no I/O confound. MB/s is raw coordinate payload;
// the acceptance bar is >=3x over serial at 4 workers, gated in CI by
// `make bench-check` (and skipped automatically on runners with fewer
// schedulable CPUs than workers — see cmd/benchjson). Each workers-N run
// also reports per-worker utilization (busy time relative to the busiest
// worker, from ParallelReader.WorkerBusy), so flat scaling is diagnosable
// from the JSON artifact: near-1.0 everywhere means the pool is balanced
// and the bottleneck is elsewhere.
func BenchmarkParallelDecode(b *testing.B) {
	stream, raw := parallelDecodeStream(b)
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
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(raw)
			busy := make([]int64, workers)
			for i := 0; i < b.N; i++ {
				pr := xtc.NewParallelReader(bytes.NewReader(stream), workers)
				if _, err := pr.ReadAll(); err != nil {
					b.Fatal(err)
				}
				for w, d := range pr.WorkerBusy() {
					busy[w] += d.Nanoseconds()
				}
				pr.Close()
			}
			var busiest int64
			for _, ns := range busy {
				if ns > busiest {
					busiest = ns
				}
			}
			for w, ns := range busy {
				util := 0.0
				if busiest > 0 {
					util = float64(ns) / float64(busiest)
				}
				b.ReportMetric(util, fmt.Sprintf("w%d_util", w))
			}
			reportCPUs(b)
		})
	}
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
	p, err := cluster.NewSSDServer()
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
			p, err := cluster.NewSSDServer()
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
			p, err := cluster.NewSSDServer()
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

// BenchmarkAblationParallelIngest compares the serial ingest loop against
// the pipelined one (decoder + per-subset writers on separate goroutines):
// real ns/op for the host, vsec for the modeled multi-core storage node.
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
				p, err := cluster.NewSSDServer()
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
