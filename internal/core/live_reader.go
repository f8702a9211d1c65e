package core

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/vfs"
	"repro/internal/xtc"
)

// ErrLiveClosed is returned by LiveReader operations after Close.
var ErrLiveClosed = errors.New("core: live reader closed")

// liveWaitSlice bounds each blocking head-wait so Close and sealed-state
// transitions are noticed promptly even when no new head is published.
const liveWaitSlice = 50 * time.Millisecond

// liveHeadAndCRC loads the dataset's head together with the CRC32C of its
// published bytes — the token WaitLiveHead's change detection keys on. A
// sealed dataset (manifest present, live.json swept) reports CRC 0.
func (a *ADA) liveHeadAndCRC(logical string) (*LiveHead, uint32, error) {
	data, err := a.readDropping(logical, liveHeadName)
	if err == nil {
		h, herr := unmarshalLiveHead(data)
		if herr != nil {
			return nil, 0, herr
		}
		return h, xtc.CRC32C(data), nil
	}
	m, merr := a.Manifest(logical)
	if merr != nil {
		return nil, 0, err // the original live.json error (typically ErrNotExist)
	}
	return sealedHead(m), 0, nil
}

// WaitLiveHead blocks until the dataset's head differs from the one
// identified by lastCRC (pass 0 for "any head") or the timeout elapses.
// It returns (head, newCRC, changed). The head's disappearance counts as a
// change: a sealed dataset comes back as a Sealed head with CRC 0, an
// aborted one as an error. Backends that can long-poll server-side (the
// RPC client) carry the whole wait in one round trip.
func (a *ADA) WaitLiveHead(logical string, lastCRC uint32, timeout time.Duration) (*LiveHead, uint32, bool, error) {
	data, crc, changed, err := a.containers.WatchDropping(logical, liveHeadName, lastCRC, timeout)
	if err != nil {
		return nil, lastCRC, false, err
	}
	if !changed {
		return nil, lastCRC, false, nil
	}
	if data == nil {
		// live.json is gone: either Seal committed the dataset or Abort
		// removed it. The manifest decides which.
		m, merr := a.Manifest(logical)
		if merr != nil {
			return nil, 0, true, fmt.Errorf("core: live dataset %s vanished: %w", logical, merr)
		}
		return sealedHead(m), 0, true, nil
	}
	h, err := unmarshalLiveHead(data)
	if err != nil {
		return nil, lastCRC, false, err
	}
	return h, crc, true, nil
}

// LiveReader tails one tagged subset of a live dataset, implementing
// vmd.FrameSource over a growing frame range. Frames() reports the
// published head (refreshed at most every staleness interval), ReadFrameAt
// on a frame at or past the head blocks until the producer publishes it —
// a reader parked on head+1 needs no other notification — and once the
// dataset seals the reader switches to the committed container and returns
// io.EOF past the end. The payload, subset.<tag>, is the same file before
// and after the seal; only the index it is read through changes. Safe for
// concurrent ReadFrameAt callers. The reader holds one read path at a time:
// a head refresh closes the one it replaces.
type LiveReader struct {
	a         *ADA
	logical   string
	tag       string
	staleness time.Duration

	// mu is held shared by ReadFrameAt across a frame read and exclusively
	// by everything that changes the fields below, so a refresh that swaps
	// fetch waits out the reads still going through the old one.
	mu       sync.RWMutex
	wg       sync.WaitGroup // in-flight public calls; Close drains it
	head     LiveHead
	headCRC  uint32
	lastPoll time.Time
	fetch    *subsetFetch // the read path over the loaded head's droppings
	frames   int          // reader-visible frames: the published head's count
	sealed   bool
	closing  bool
	closed   chan struct{}
}

// DefaultLiveStaleness bounds how stale LiveReader.Frames may run behind
// the published head when the caller passes no explicit staleness.
const DefaultLiveStaleness = 50 * time.Millisecond

// OpenLiveReader opens a tailing reader over one tagged subset of a live
// (or already sealed) dataset. staleness bounds how far Frames() may lag
// the published head; <=0 selects DefaultLiveStaleness.
func (a *ADA) OpenLiveReader(logical, tag string, staleness time.Duration) (*LiveReader, error) {
	if staleness <= 0 {
		staleness = DefaultLiveStaleness
	}
	lr := &LiveReader{
		a:         a,
		logical:   logical,
		tag:       tag,
		staleness: staleness,
		closed:    make(chan struct{}),
	}
	h, crc, err := a.liveHeadAndCRC(logical)
	if err != nil {
		return nil, err
	}
	if _, ok := h.Subsets[tag]; !ok {
		return nil, fmt.Errorf("%w: %q in %s (have %v)", ErrUnknownTag, tag, logical, h.Tags())
	}
	lr.mu.Lock()
	err = lr.applyHeadLocked(h, crc)
	lr.lastPoll = time.Now()
	lr.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return lr, nil
}

// enter registers a public call; it fails once Close has begun.
func (lr *LiveReader) enter() error {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	if lr.closing {
		return ErrLiveClosed
	}
	lr.wg.Add(1)
	return nil
}

// applyHeadLocked installs a freshly loaded head by opening a fresh read
// path over its droppings (recovery may have replaced the file behind an old
// handle, so handles are never trusted across publishes) and closing the one
// it replaces: subset.<tag> through its live index while the dataset grows,
// through its committed index once it is sealed. Either way every frame is
// checked against the index it was opened with. The caller holds lr.mu
// exclusively, so no ReadFrameAt is reading through the old one.
func (lr *LiveReader) applyHeadLocked(h *LiveHead, crc uint32) error {
	index := liveIndexPrefix + lr.tag
	if h.Sealed {
		if lr.sealed {
			return nil
		}
		index = indexPrefix + lr.tag
	} else if crc == lr.headCRC && lr.fetch != nil {
		return nil // unchanged head
	}
	if _, ok := h.Subsets[lr.tag]; !ok {
		return fmt.Errorf("%w: %q in %s", ErrUnknownTag, lr.tag, lr.logical)
	}
	fetch, err := lr.a.openFetch(lr.logical, lr.tag, index, false)
	if !h.Sealed && errors.Is(err, vfs.ErrNotExist) {
		// The live droppings go only once the manifest has landed, so the
		// dataset has sealed since its head was loaded — or, with no
		// manifest, it was aborted.
		if m, merr := lr.a.Manifest(lr.logical); merr == nil {
			return lr.applyHeadLocked(sealedHead(m), 0)
		}
	}
	if err != nil {
		return err
	}
	if fetch.idx.Frames() < h.Frames {
		// Indexes are published strictly before the head, so this cannot
		// happen on a consistent store; treat it as corruption, not a lag.
		fetch.close()
		return fmt.Errorf("core: live %s subset %s: index has %d frames, head %d: %w",
			lr.logical, lr.tag, fetch.idx.Frames(), h.Frames, vfs.ErrCorrupted)
	}
	if lr.fetch != nil {
		lr.fetch.close()
	}
	lr.fetch = fetch
	lr.frames = h.Frames
	lr.sealed = h.Sealed
	lr.head = *h
	lr.headCRC = crc
	return nil
}

// refreshLocked reloads the head unless the last load is within the
// staleness bound (force skips the bound).
func (lr *LiveReader) refreshLocked(force bool) error {
	if lr.sealed {
		return nil
	}
	if !force && time.Since(lr.lastPoll) < lr.staleness {
		return nil
	}
	h, crc, err := lr.a.liveHeadAndCRC(lr.logical)
	if err != nil {
		return err
	}
	lr.lastPoll = time.Now()
	return lr.applyHeadLocked(h, crc)
}

// Frames returns the published head's frame count, at most staleness old.
// Once sealed it is the final frame count.
func (lr *LiveReader) Frames() int {
	if err := lr.enter(); err != nil {
		return 0
	}
	defer lr.wg.Done()
	lr.mu.Lock()
	defer lr.mu.Unlock()
	_ = lr.refreshLocked(false) // best effort; a failed poll keeps the last head
	return lr.frames
}

// Head returns the most recently loaded head (refreshing within the
// staleness bound) — frames, per-subset bytes, sealed state.
func (lr *LiveReader) Head() (LiveHead, error) {
	if err := lr.enter(); err != nil {
		return LiveHead{}, err
	}
	defer lr.wg.Done()
	lr.mu.Lock()
	defer lr.mu.Unlock()
	if err := lr.refreshLocked(false); err != nil {
		return LiveHead{}, err
	}
	return lr.head, nil
}

// Live reports whether the dataset is still growing. It is the live-source
// marker serve.Handle keys on.
func (lr *LiveReader) Live() bool {
	if err := lr.enter(); err != nil {
		return false
	}
	defer lr.wg.Done()
	lr.mu.Lock()
	defer lr.mu.Unlock()
	_ = lr.refreshLocked(false)
	return !lr.sealed
}

// ConcurrentFrameReads reports that ReadFrameAt is safe for concurrent use,
// so the serve fabric's workers need not serialize on the handle.
func (lr *LiveReader) ConcurrentFrameReads() bool { return true }

// awaitFrames blocks until the loaded head holds at least n frames, the
// dataset seals, or the deadline (zero: none) passes, pulling in each newer
// head as the producer publishes it. It returns the frame count of the head
// it stopped on; Close unblocks it with ErrLiveClosed.
func (lr *LiveReader) awaitFrames(n int, deadline time.Time) (int, error) {
	for {
		lr.mu.RLock()
		frames, sealed, crc := lr.frames, lr.sealed, lr.headCRC
		lr.mu.RUnlock()
		if frames >= n || sealed {
			return frames, nil
		}
		wait := liveWaitSlice
		if !deadline.IsZero() {
			remaining := time.Until(deadline)
			if remaining <= 0 {
				return frames, nil
			}
			if remaining < wait {
				wait = remaining
			}
		}
		h, newCRC, changed, err := lr.a.WaitLiveHead(lr.logical, crc, wait)
		if err != nil {
			return frames, err
		}
		select {
		case <-lr.closed:
			return frames, ErrLiveClosed
		default:
		}
		if changed {
			lr.mu.Lock()
			err := lr.applyHeadLocked(h, newCRC)
			lr.lastPoll = time.Now()
			lr.mu.Unlock()
			if err != nil {
				return frames, err
			}
		}
	}
}

// ReadFrameAt decodes subset frame i. A frame at or past the live head
// blocks until the producer publishes it (or the dataset seals — then
// io.EOF past the final frame, like any FrameSource). Close unblocks
// waiters with ErrLiveClosed.
func (lr *LiveReader) ReadFrameAt(i int) (*xtc.Frame, error) {
	if err := lr.enter(); err != nil {
		return nil, err
	}
	defer lr.wg.Done()
	frames, err := lr.awaitFrames(i+1, time.Time{})
	if err != nil {
		return nil, err
	}
	if i >= frames {
		return nil, io.EOF // sealed short of frame i
	}
	// Heads only grow and published prefixes are immutable, so whichever
	// head is loaded now holds frame i.
	lr.mu.RLock()
	defer lr.mu.RUnlock()
	return lr.fetch.frame(i)
}

// WaitFrames blocks until the head reaches at least n frames, the dataset
// seals, or the timeout elapses; it returns the head's frame count at that
// point. The caller distinguishes timeout from progress by the count.
func (lr *LiveReader) WaitFrames(n int, timeout time.Duration) (int, error) {
	if err := lr.enter(); err != nil {
		return 0, err
	}
	defer lr.wg.Done()
	frames, err := lr.awaitFrames(n, time.Now().Add(timeout))
	return frames, err
}

// Close unblocks waiters, drains in-flight reads, and releases the read
// path's dropping handles.
func (lr *LiveReader) Close() error {
	lr.mu.Lock()
	if lr.closing {
		lr.mu.Unlock()
		return nil
	}
	lr.closing = true
	close(lr.closed)
	lr.mu.Unlock()
	lr.wg.Wait()
	lr.mu.Lock()
	defer lr.mu.Unlock()
	lr.fetch.close()
	lr.fetch = nil
	return nil
}
