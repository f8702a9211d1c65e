package core

import (
	"io"

	"repro/internal/xtc"
)

// IngestParallel is Ingest — the same pipeline, the same ordered writes, the
// same checkpoints, byte-identical output — with the virtual clock charged
// as the multi-core storage node the pipeline actually uses: the CPU stages
// overlap, so their wall time is the slowest stage rather than their sum,
// and the decode stage is itself a pool whose wall time is the busiest
// worker's share of the decompression, not the serial total. Device I/O time
// is still charged as the writes happen (the backends are shared). The
// report's Parallel section describes the pool.
//
// queue is unused: there is no fan-out queue any more. The pool size comes
// from Options.DecodeWorkers.
func (a *ADA) IngestParallel(logical string, pdbData []byte, traj io.Reader, queue int) (*IngestReport, error) {
	src := a.decodeAhead(traj)
	defer src.Close()
	return a.ingest(logical, pdbData, src, &parallelCharge{pr: src.ParallelReader})
}

// parallelCharge accumulates per-stage virtual CPU time over an ingest and
// applies it as one concurrent charge at the end.
type parallelCharge struct {
	pr            *xtc.ParallelReader
	decodeSec     []float64 // per decode worker, frames dealt round-robin
	categorizeSec []float64 // per subset writer
}

// begin sizes the accumulators and returns the frame loop's charge hook.
func (c *parallelCharge) begin(st *ingestState) func(consumed int64) {
	workers := c.pr.Workers()
	c.decodeSec = make([]float64, workers)
	c.categorizeSec = make([]float64, len(st.writers))
	cost := st.a.opts.Cost
	return func(consumed int64) {
		c.decodeSec[st.report.Frames%workers] += cost.decompressTime(consumed)
		for i, sw := range st.writers {
			c.categorizeSec[i] += cost.categorizeTime(xtc.RawFrameSize(sw.natoms))
		}
	}
}

// finish advances the clock by the slowest stage — every stage's work still
// lands in the profile, decode workers in the shared decompress bucket, so
// the profile totals equal the serial path's — and fills in the report's
// pool telemetry: the round-robin virtual charge and each worker's real
// busy time.
func (c *parallelCharge) finish(st *ingestState) {
	if env := st.a.env; env != nil {
		var worst float64
		for _, sec := range c.decodeSec {
			env.ChargeConcurrent("storage.cpu.decompress", sec)
			worst = max(worst, sec)
		}
		for _, sec := range c.categorizeSec {
			env.ChargeConcurrent("storage.cpu.categorize", sec)
			worst = max(worst, sec)
		}
		env.Clock.Advance(worst)
	}
	busy := c.pr.WorkerBusy()
	rep := &ParallelIngestReport{
		DecodeWorkers:     len(busy),
		WorkerDecodeSec:   c.decodeSec,
		WorkerBusyNS:      make([]int64, len(busy)),
		WorkerUtilization: make([]float64, len(busy)),
	}
	var busiest int64
	for i, d := range busy {
		rep.WorkerBusyNS[i] = d.Nanoseconds()
		busiest = max(busiest, rep.WorkerBusyNS[i])
	}
	if busiest > 0 {
		for i, ns := range rep.WorkerBusyNS {
			rep.WorkerUtilization[i] = float64(ns) / float64(busiest)
		}
	}
	st.report.Parallel = rep
}
