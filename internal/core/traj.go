package core

import (
	"fmt"
	"io"

	"repro/internal/dcd"
	"repro/internal/trr"
	"repro/internal/xtc"
)

// TrajectoryReader abstracts the trajectory format an ingest consumes. Each
// call returns the decoded frame and the encoded bytes it consumed;
// Compressed reports whether decoding pays decompression CPU (XTC does,
// DCD does not — its records are raw floats).
type TrajectoryReader interface {
	ReadFrame() (*xtc.Frame, int64, error)
	Compressed() bool
}

// xtcTrajectory adapts an XTC stream decoded in line; the reader reports
// each frame's exact encoded size, not what its read-ahead pulled.
type xtcTrajectory struct{ r *xtc.Reader }

// aheadTrajectory is the ingest path's XTC source: frames decoded ahead of
// the frame loop, which hands each back (Recycle) once it is written out.
type aheadTrajectory struct{ *xtc.ParallelReader }

func (t aheadTrajectory) ReadFrame() (*xtc.Frame, int64, error) { return t.ReadFrameSize() }
func (t aheadTrajectory) Compressed() bool                      { return true }

// NewXTCTrajectory wraps a compressed (or raw) XTC stream for ingest.
func NewXTCTrajectory(r io.Reader) TrajectoryReader {
	return xtcTrajectory{xtc.NewReader(r)}
}

func (t xtcTrajectory) ReadFrame() (*xtc.Frame, int64, error) { return t.r.ReadFrameSize() }

func (t xtcTrajectory) Compressed() bool { return true }

// dcdTrajectory adapts a DCD stream.
type dcdTrajectory struct {
	r    *dcd.Reader
	last int64
}

// NewDCDTrajectory wraps a DCD stream for ingest.
func NewDCDTrajectory(r io.Reader) (TrajectoryReader, error) {
	d, err := dcd.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &dcdTrajectory{r: d, last: d.BytesConsumed()}, nil
}

func (t *dcdTrajectory) ReadFrame() (*xtc.Frame, int64, error) {
	f, err := t.r.ReadFrame()
	consumed := t.r.BytesConsumed() - t.last
	t.last = t.r.BytesConsumed()
	return f, consumed, err
}

func (t *dcdTrajectory) Compressed() bool { return false }

// trrTrajectory adapts a GROMACS TRR stream (full precision, uncompressed;
// velocities and forces are dropped — ADA serves the visualization path).
type trrTrajectory struct {
	r    *trr.Reader
	last int64
}

// NewTRRTrajectory wraps a TRR stream for ingest.
func NewTRRTrajectory(r io.Reader) TrajectoryReader {
	return &trrTrajectory{r: trr.NewReader(r)}
}

func (t *trrTrajectory) ReadFrame() (*xtc.Frame, int64, error) {
	f, err := t.r.ReadFrame()
	consumed := t.r.BytesConsumed() - t.last
	t.last = t.r.BytesConsumed()
	if err != nil {
		return nil, consumed, err
	}
	return f.ToXTC(), consumed, nil
}

func (t *trrTrajectory) Compressed() bool { return false }

// IngestTrajectory is Ingest for any supported trajectory format, decoded in
// line by the reader it is handed.
func (a *ADA) IngestTrajectory(logical string, pdbData []byte, tr TrajectoryReader) (*IngestReport, error) {
	return a.ingest(logical, pdbData, tr, nil)
}
