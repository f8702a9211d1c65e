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
type aheadTrajectory struct{ *xtc.AheadReader }

func (t aheadTrajectory) ReadFrame() (*xtc.Frame, int64, error) { return t.ReadFrameSize() }
func (t aheadTrajectory) Compressed() bool                      { return true }

// NewXTCTrajectory wraps a compressed (or raw) XTC stream for ingest.
func NewXTCTrajectory(r io.Reader) TrajectoryReader {
	return xtcTrajectory{xtc.NewReader(r)}
}

func (t xtcTrajectory) ReadFrame() (*xtc.Frame, int64, error) { return t.r.ReadFrameSize() }

func (t xtcTrajectory) Compressed() bool { return true }

// rawTrajectory adapts a format of uncompressed records: read decodes the
// next frame and consumed is the stream's running byte count, whose growth
// over a read is what that frame consumed.
type rawTrajectory struct {
	read     func() (*xtc.Frame, error)
	consumed func() int64
	last     int64
}

func (t *rawTrajectory) ReadFrame() (*xtc.Frame, int64, error) {
	f, err := t.read()
	n := t.consumed() - t.last
	t.last += n
	return f, n, err
}

func (t *rawTrajectory) Compressed() bool { return false }

// NewDCDTrajectory wraps a DCD stream for ingest.
func NewDCDTrajectory(r io.Reader) (TrajectoryReader, error) {
	d, err := dcd.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &rawTrajectory{read: d.ReadFrame, consumed: d.BytesConsumed, last: d.BytesConsumed()}, nil
}

// NewTRRTrajectory wraps a GROMACS TRR stream for ingest (full precision,
// uncompressed; velocities and forces are dropped — ADA serves the
// visualization path).
func NewTRRTrajectory(r io.Reader) TrajectoryReader {
	t := trr.NewReader(r)
	return &rawTrajectory{consumed: t.BytesConsumed, read: func() (*xtc.Frame, error) {
		f, err := t.ReadFrame()
		if err != nil {
			return nil, err
		}
		return f.ToXTC(), nil
	}}
}

// IngestTrajectory is Ingest for any supported trajectory format, decoded in
// line by the reader it is handed.
func (a *ADA) IngestTrajectory(logical string, pdbData []byte, tr TrajectoryReader) (*IngestReport, error) {
	return a.ingest(logical, pdbData, tr, false, false)
}
