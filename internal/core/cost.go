package core

import (
	"repro/internal/sim"
	"repro/internal/xtc"
)

// StorageCost models the storage node's CPU rates for the pre-processing
// work ADA off-loads from compute nodes. Rates are bytes per second of
// virtual time; set a rate to zero to charge nothing for that stage (useful
// in pure-functional tests).
//
// The defaults are calibrated against the measured throughput of this
// repository's own XTC codec on a ~2 GHz server core, which reproduces the
// paper's central observation that decompression, not I/O, dominates the
// data-processing turnaround (Sections 4.1-4.3).
type StorageCost struct {
	// PDBParseBps is the structure-file analysis rate (Algorithm 1 input).
	PDBParseBps float64
	// DecompressBps is the XTC decompression rate over compressed bytes.
	DecompressBps float64
	// CategorizeBps is the split-and-scatter rate over raw (decompressed)
	// bytes when dividing frames into tagged subsets.
	CategorizeBps float64
	// CPUFactor scales all rates (1 = the calibration platform). Slower
	// platform cores use a factor < 1.
	CPUFactor float64
}

// DefaultStorageCost returns the calibrated storage-node rates. The
// decompression rate matches this repository's real codec throughput; the
// categorize rate mirrors the compute-side scan rate (the same
// stream-and-split pass, run on the storage node instead).
func DefaultStorageCost() StorageCost {
	return StorageCost{
		PDBParseBps:   100e6,
		DecompressBps: 125e6,
		CategorizeBps: 650e6,
		CPUFactor:     1,
	}
}

func (c StorageCost) factor() float64 {
	if c.CPUFactor <= 0 {
		return 1
	}
	return c.CPUFactor
}

// seconds returns the virtual seconds n bytes take at bps on this platform;
// a zero rate charges nothing.
func (c StorageCost) seconds(n int64, bps float64) float64 {
	if bps <= 0 {
		return 0
	}
	return float64(n) / (bps * c.factor())
}

// parseTime returns the virtual seconds to analyze n bytes of .pdb data.
func (c StorageCost) parseTime(n int64) float64 { return c.seconds(n, c.PDBParseBps) }

// decompressTime returns the virtual seconds to decompress n compressed bytes.
func (c StorageCost) decompressTime(n int64) float64 { return c.seconds(n, c.DecompressBps) }

// categorizeTime returns the virtual seconds to split n raw bytes by tag.
func (c StorageCost) categorizeTime(n int64) float64 { return c.seconds(n, c.CategorizeBps) }

// ingestCharge is an ingest session's one hook into the virtual clock: every
// storage-node CPU charge of the write path and the Elapsed read go through
// it, and no other file of this package touches the sim.Env. Without an Env
// the hook is nil and its methods do nothing: a production session pays a
// nil check per call. Serial mode, the default, advances the clock by each
// frame's decompression and categorization one after the other — the paper's
// single-core storage node. Overlapped mode (IngestParallel) accumulates the
// same work per decode worker and per subset writer, and settle advances the
// clock by the slowest of them.
type ingestCharge struct {
	env   *sim.Env
	cost  StorageCost
	start float64 // the clock when the session opened

	decodeSec     []float64 // overlapped: per decode worker, frames dealt round-robin
	categorizeSec []float64 // overlapped: per subset writer
}

// newIngestCharge starts a session's hook; nil when there is no clock.
func (a *ADA) newIngestCharge() *ingestCharge {
	if a.env == nil {
		return nil
	}
	return &ingestCharge{env: a.env, cost: a.opts.Cost, start: a.env.Clock.Now()}
}

// cpu charges sec seconds of storage-node CPU to bucket.
func (c *ingestCharge) cpu(bucket string, sec float64) {
	if c != nil && sec > 0 {
		c.env.Charge("storage.cpu."+bucket, sec)
	}
}

// overlap switches the hook to overlapped charging for a pool of workers
// decoders feeding writers subset writers.
func (c *ingestCharge) overlap(workers, writers int) {
	if c != nil {
		c.decodeSec = make([]float64, workers)
		c.categorizeSec = make([]float64, writers)
	}
}

// frame charges the frame the session is about to write: its consumed
// encoded bytes decompressed (when the source pays any), its raw bytes
// split by tag, and — with the in-situ statistics stage on — read once more.
func (c *ingestCharge) frame(st *ingestState, consumed int64, compressed bool) {
	if c == nil {
		return
	}
	if c.decodeSec != nil {
		c.decodeSec[st.report.Frames%len(c.decodeSec)] += c.cost.decompressTime(consumed)
		for i, sw := range st.writers {
			c.categorizeSec[i] += c.cost.categorizeTime(xtc.RawFrameSize(sw.natoms))
		}
		return
	}
	split := c.cost.categorizeTime(xtc.RawFrameSize(st.natoms))
	if compressed {
		c.cpu("decompress", c.cost.decompressTime(consumed))
	}
	c.cpu("categorize", split)
	if st.stats != nil {
		c.cpu("insitu", split)
	}
}

// settle runs as the session seals, after the last frame and before the
// metadata is staged. Overlapped stages advance the clock by the slowest one
// — every stage's work still lands in the profile, decode workers in the
// shared decompress bucket, so the profile totals equal the serial path's —
// and the per-worker decode charge is returned for the pool report.
func (c *ingestCharge) settle() []float64 {
	if c == nil || c.decodeSec == nil {
		return nil
	}
	var worst float64
	for _, sec := range c.decodeSec {
		c.env.ChargeConcurrent("storage.cpu.decompress", sec)
		worst = max(worst, sec)
	}
	for _, sec := range c.categorizeSec {
		c.env.ChargeConcurrent("storage.cpu.categorize", sec)
		worst = max(worst, sec)
	}
	c.env.Clock.Advance(worst)
	return c.decodeSec
}

// elapsed is the virtual seconds since the session opened.
func (c *ingestCharge) elapsed() float64 {
	if c == nil {
		return 0
	}
	return c.env.Clock.Now() - c.start
}
