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
// queue is unused: there is no fan-out queue any more, and the pool size
// comes from Options.DecodeWorkers. The entry point stays, three lines over
// the one ingest path, because the end-to-end benchmark's parallelProbe
// (benchmarks/e2e/run.go) times it against Ingest.
func (a *ADA) IngestParallel(logical string, pdbData []byte, traj io.Reader, queue int) (*IngestReport, error) {
	src := a.decodeAhead(traj)
	defer src.Close()
	return a.ingest(logical, pdbData, src, false, src.ParallelReader)
}

// poolReport describes how the decode pool behaved: each worker's real busy
// time, and decodeSec, the virtual charge dealt to it round-robin (nil
// without a clock).
func poolReport(pr *xtc.ParallelReader, decodeSec []float64) *ParallelIngestReport {
	busy := pr.WorkerBusy()
	rep := &ParallelIngestReport{
		DecodeWorkers:     len(busy),
		WorkerDecodeSec:   decodeSec,
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
	return rep
}
