package core

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/vfs"
	"repro/internal/xtc"
)

// The one read path. Every frame any reader hands out — sequential, random
// access, merged, tailing a live dataset or reading it sealed — comes from
// subsetFetch.frame: index entry → the frame's stored bytes → CRC32C check
// when the index carries one → decode. Redundancy is not core's business:
// the bytes are read with vfs.ReadAtVerified, so a dropping stored on a
// placement replica set retries a copy that fails the check on its other
// copies, and the caller sees the frames a healthy store would have served.
// Only when every copy is bad does the read surface vfs.ErrCorrupted.

// verifyMetrics counts checksum verification on the read path.
type verifyMetrics struct {
	frames    *metrics.Counter // core.verify.frames: frames that passed
	bytes     *metrics.Counter // core.verify.bytes: payload bytes checksummed
	corrupted *metrics.Counter // core.verify.corrupted: checksum mismatches
}

func newVerifyMetrics(reg *metrics.Registry) verifyMetrics {
	return verifyMetrics{
		frames:    reg.Counter("core.verify.frames"),
		bytes:     reg.Counter("core.verify.bytes"),
		corrupted: reg.Counter("core.verify.corrupted"),
	}
}

// subsetFetch serves the frames of one subset payload dropping through the
// index that describes it. Safe for concurrent frame calls (vfs.File.ReadAt
// is concurrency-safe by contract and the byte scratch is pooled).
type subsetFetch struct {
	a       *ADA
	logical string
	tag     string
	// heatName is subset.<tag>, the name the heat signal knows the payload
	// by whatever dropping holds it while the dataset is live.
	heatName string
	file     vfs.File
	idx      *xtc.Index
}

// openFetch opens the read path over a payload dropping and its index
// dropping: subset.<tag> + index.<tag> for a committed dataset,
// staging.subset.<tag> + live.index.<tag> for a live one. An index that
// cannot be read or parsed is an error unless rescan is set; then the frames
// are found again by a header-only scan of the payload, without their
// checksums, so the read is unverified (fsck reports the damage).
func (a *ADA) openFetch(logical, tag, payload, index string, rescan bool) (*subsetFetch, error) {
	var idx *xtc.Index
	idxBytes, err := a.readDropping(logical, index)
	if err == nil {
		idx, err = xtc.UnmarshalIndex(idxBytes)
	}
	if err != nil && !rescan {
		return nil, fmt.Errorf("core: %s subset %s index: %w", logical, tag, err)
	}
	f, ferr := a.containers.OpenDropping(logical, payload)
	if ferr != nil {
		return nil, ferr
	}
	if err != nil {
		if idx, err = xtc.BuildIndex(f, f.Size()); err != nil {
			f.Close()
			return nil, fmt.Errorf("core: %s subset %s: %w", logical, tag, err)
		}
	}
	return &subsetFetch{a: a, logical: logical, tag: tag, heatName: subsetPrefix + tag, file: f, idx: idx}, nil
}

// frame fetches, checks and decodes frame i into a new Frame, the caller's to
// keep. A dataset ingested without checksums takes the same path; its index
// has nothing to check against.
func (s *subsetFetch) frame(i int) (*xtc.Frame, error) { return s.frameInto(i, &xtc.Frame{}) }

// frameInto is frame into dst, whose Coords are overwritten and reused: for a
// reader that copies out of each frame and keeps none.
func (s *subsetFetch) frameInto(i int, dst *xtc.Frame) (*xtc.Frame, error) {
	f, err := s.idx.ReadFrame(i, dst, func(p []byte, off int64) error {
		return vfs.ReadAtVerified(s.file, p, off, func(b []byte) bool { return s.accept(i, b) })
	})
	if err != nil {
		return nil, fmt.Errorf("core: subset %s frame %d: %w", s.tag, i, err)
	}
	s.a.noteAccess(s.logical, s.heatName, s.idx.Size(i)) // the exact stored size
	return f, nil
}

// accept is the verdict on one copy of frame i's stored bytes.
func (s *subsetFetch) accept(i int, p []byte) bool {
	good := s.idx.FrameOK(i, p)
	if s.idx.HasChecksums() {
		vm := &s.a.vm
		vm.bytes.Add(int64(len(p)))
		if good {
			vm.frames.Inc()
		} else {
			vm.corrupted.Inc()
		}
	}
	return good
}

func (s *subsetFetch) close() error { return s.file.Close() }
