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

// liveSealGrace bounds how long a reader that finds Seal mid-commit waits
// for the manifest, and liveSealPoll is how often it looks. The window is a
// manifest write and a rename wide, so the grace only runs out when the
// sealing process died inside it.
const (
	liveSealGrace = 5 * time.Second
	liveSealPoll  = 5 * time.Millisecond
)

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
// io.EOF past the end. Safe for concurrent ReadFrameAt callers.
type LiveReader struct {
	a         *ADA
	logical   string
	tag       string
	staleness time.Duration

	mu       sync.Mutex
	wg       sync.WaitGroup // in-flight public calls; Close drains it
	head     LiveHead
	headCRC  uint32
	lastPoll time.Time
	fetch    *subsetFetch // the read path over the loaded head's droppings
	frames   int          // reader-visible frames: the published head's count
	sealed   bool
	closing  bool
	closed   chan struct{}
	// retired holds superseded fetches until Close: a concurrent
	// ReadFrameAt may still be reading through a snapshot taken before a
	// head refresh swapped the handle out.
	retired []*subsetFetch
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
// handle, so handles are never trusted across publishes): the staged subset
// and its live index while the dataset grows, the committed container's
// final droppings once it is sealed. Either way every frame is checked
// against the index it was opened with.
func (lr *LiveReader) applyHeadLocked(h *LiveHead, crc uint32) error {
	payload, index := stagingPrefix+subsetPrefix+lr.tag, liveIndexPrefix+lr.tag
	if h.Sealed {
		if lr.sealed {
			return nil
		}
		payload, index = subsetPrefix+lr.tag, indexPrefix+lr.tag
	} else if crc == lr.headCRC && lr.fetch != nil {
		return nil // unchanged head
	}
	if _, ok := h.Subsets[lr.tag]; !ok {
		return fmt.Errorf("%w: %q in %s", ErrUnknownTag, lr.tag, lr.logical)
	}
	fetch, err := lr.a.openFetch(lr.logical, lr.tag, payload, index, false)
	if !h.Sealed && errors.Is(err, vfs.ErrNotExist) {
		return lr.awaitSealLocked(err)
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
		lr.retired = append(lr.retired, lr.fetch)
	}
	lr.fetch = fetch
	lr.frames = h.Frames
	lr.sealed = h.Sealed
	lr.head = *h
	lr.headCRC = crc
	return nil
}

// awaitSealLocked handles a live dropping that is missing under an unsealed
// head: Seal is somewhere between renaming the staged subsets to their final
// names and sweeping live.json. The manifest is the commit point, so the
// reader waits for it — lr.mu released between polls, so Close and other
// callers are not held up — and then switches to the sealed droppings.
// cause is returned when there is no commit to wait for: live.json is gone
// too and no manifest followed it (Seal removes it only after the manifest
// lands, so the dataset was aborted), or liveSealGrace ran out (the sealing
// process died; Recover finishes the commit at the next start).
func (lr *LiveReader) awaitSealLocked(cause error) error {
	deadline := time.Now().Add(liveSealGrace)
	for {
		_, headErr := lr.a.containers.StatDropping(lr.logical, liveHeadName)
		if m, err := lr.a.Manifest(lr.logical); err == nil {
			return lr.applyHeadLocked(sealedHead(m), 0)
		}
		if errors.Is(headErr, vfs.ErrNotExist) || time.Now().After(deadline) {
			return cause
		}
		lr.mu.Unlock()
		select {
		case <-lr.closed:
			lr.mu.Lock()
			return ErrLiveClosed
		case <-time.After(liveSealPoll):
		}
		lr.mu.Lock()
	}
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
// head as the producer publishes it. It returns the read path and frame
// count of the head it stopped on; Close unblocks it with ErrLiveClosed.
func (lr *LiveReader) awaitFrames(n int, deadline time.Time) (*subsetFetch, int, error) {
	for {
		lr.mu.Lock()
		fetch, frames, sealed, crc := lr.fetch, lr.frames, lr.sealed, lr.headCRC
		lr.mu.Unlock()
		if frames >= n || sealed {
			return fetch, frames, nil
		}
		wait := liveWaitSlice
		if !deadline.IsZero() {
			remaining := time.Until(deadline)
			if remaining <= 0 {
				return fetch, frames, nil
			}
			if remaining < wait {
				wait = remaining
			}
		}
		h, newCRC, changed, err := lr.a.WaitLiveHead(lr.logical, crc, wait)
		if err != nil {
			return fetch, frames, err
		}
		select {
		case <-lr.closed:
			return fetch, frames, ErrLiveClosed
		default:
		}
		if changed {
			lr.mu.Lock()
			err := lr.applyHeadLocked(h, newCRC)
			lr.lastPoll = time.Now()
			lr.mu.Unlock()
			if err != nil {
				return fetch, frames, err
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
	fetch, frames, err := lr.awaitFrames(i+1, time.Time{})
	if err != nil {
		return nil, err
	}
	if i >= frames {
		return nil, io.EOF // sealed short of frame i
	}
	return fetch.frame(i)
}

// WaitFrames blocks until the head reaches at least n frames, the dataset
// seals, or the timeout elapses; it returns the head's frame count at that
// point. The caller distinguishes timeout from progress by the count.
func (lr *LiveReader) WaitFrames(n int, timeout time.Duration) (int, error) {
	if err := lr.enter(); err != nil {
		return 0, err
	}
	defer lr.wg.Done()
	_, frames, err := lr.awaitFrames(n, time.Now().Add(timeout))
	return frames, err
}

// Close unblocks waiters, drains in-flight reads, and releases every
// dropping handle the reader accumulated across head refreshes.
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
	for _, f := range append(lr.retired, lr.fetch) {
		f.close()
	}
	lr.retired, lr.fetch = nil, nil
	return nil
}
