// Package stream is the reader half of the live-container subsystem: while
// a producer appends frame batches to an open dataset (core.LiveIngest,
// called directly — Append returns once the batch is durable and published,
// which is all the backpressure a producer needs), readers tail the growing
// head with bounded staleness.
//
// Source wraps core.LiveReader into a vmd.FrameSource whose head advances as
// the producer publishes, with tail lag surfaced per read in the
// stream.tail.lag_frames histogram (head-minus-position lag per tailing
// read).
package stream

import (
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/xtc"
)

// DefaultStaleness bounds how old a tailing reader's view of the head may
// be: a reader re-checks the published head at least this often while
// serving reads, so a frame is visible at most one staleness interval after
// publication (plus the read itself).
const DefaultStaleness = core.DefaultLiveStaleness

// Options configures a tailing Source.
type Options struct {
	// Staleness bounds how stale the reader's cached head may be.
	// Zero means DefaultStaleness.
	Staleness time.Duration
	// Metrics receives stream.* series. Nil disables instrumentation.
	Metrics *metrics.Registry
}

// Source tails one subset of a live dataset. It implements vmd.FrameSource
// and the live-source marker (Live) a serve.Handle opened over it reports,
// so one tail serves any number of viewers through the fabric.
type Source struct {
	lr  *core.LiveReader
	lag *metrics.Histogram
}

// Open starts tailing logical's subset tag.
func Open(a *core.ADA, logical, tag string, opts Options) (*Source, error) {
	lr, err := a.OpenLiveReader(logical, tag, opts.Staleness)
	if err != nil {
		return nil, err
	}
	s := &Source{lr: lr}
	if opts.Metrics != nil {
		s.lag = opts.Metrics.Histogram("stream.tail.lag_frames")
	}
	return s, nil
}

// Frames reports the current head position (frames visible so far).
func (s *Source) Frames() int { return s.lr.Frames() }

// Live reports whether the dataset is still growing; serve.Handle.Live
// passes it on.
func (s *Source) Live() bool { return s.lr.Live() }

// ConcurrentFrameReads marks the source safe for parallel readers.
func (s *Source) ConcurrentFrameReads() bool { return true }

// Head returns the current live head snapshot.
func (s *Source) Head() (core.LiveHead, error) { return s.lr.Head() }

// ReadFrameAt returns frame i, blocking while i is past the current head of
// a live dataset until the producer publishes it (or the source is closed).
// Past the end of a sealed dataset it returns io.EOF.
func (s *Source) ReadFrameAt(i int) (*xtc.Frame, error) {
	if s.lag != nil {
		if head := s.lr.Frames(); head > i {
			s.lag.Observe(int64(head - 1 - i))
		} else {
			s.lag.Observe(0)
		}
	}
	return s.lr.ReadFrameAt(i)
}

// WaitFrames blocks until at least n frames are visible, the timeout
// elapses, or the dataset seals; it returns the visible frame count.
func (s *Source) WaitFrames(n int, timeout time.Duration) (int, error) {
	return s.lr.WaitFrames(n, timeout)
}

// Close releases the source. A reader blocked in ReadFrameAt is unblocked
// with core.ErrLiveClosed.
func (s *Source) Close() error { return s.lr.Close() }
