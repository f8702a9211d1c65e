package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
)

// Streaming (live) ingest.
//
// A live dataset is an ingest that has not finished yet: a running
// simulation keeps appending frame batches while readers tail the growing
// head. The writer is the one ingest session (ingestState, ada.go) held open
// across calls: Append runs a batch through the session's frame loop, Seal
// is the session's seal, and the staged subset droppings and the journal are
// exactly those of an interrupted one-shot ingest, so a crash at any point
// recovers through the same classification machinery.
//
// What streaming adds is a published head. After every appended batch the
// writer journals a checkpoint and then republishes two kinds of read-side
// droppings, strictly in this order:
//
//	live.index.<tag> — the subset's frame index up to the checkpoint
//	live.json        — the head: version, frame count, per-subset sizes
//
// Each republish is an atomic same-backend rename, and readers gate on
// live.json, so a reader never observes frames the journal has not made
// durable: staged bytes >= journaled checkpoint >= published head at every
// instant, which is what makes every observed prefix crash-stable. A
// reader that loads live.json at version v and then live.index.<tag> may
// see a NEWER index — indexes are published before the head — but never an
// older one, and it reads only head.Frames entries of it.
//
// Seal commits the dataset through the one-shot path (rename staged
// droppings, manifest last, retire the journal) and then removes the
// live.* droppings; the result is byte-identical to a one-shot Ingest of
// the same frames. Recover classifies a killed live dataset as
// RecoveryLive: the session is reopened from the journal, cut back to the
// last checkpoint (cutBack, durable.go — the same cut ResumeLiveIngest
// makes), republishes the head there and detaches.

// Live dropping names. liveHeadName is the reader gate; liveIndexPrefix
// names the per-tag published index prefixes.
const (
	liveHeadName    = "live.json"
	liveIndexPrefix = "live.index."
)

// LiveSubset is one tag's published state in a live head.
type LiveSubset struct {
	NAtoms  int    `json:"natoms"`
	Bytes   int64  `json:"bytes"`
	Backend string `json:"backend"`
	Ranges  string `json:"ranges"`
}

// LiveHead is the reader-visible head of a live dataset, published
// atomically after every appended batch. Version increases by one per
// publish; Sealed heads are synthesized from the final manifest.
type LiveHead struct {
	Logical     string                `json:"logical"`
	Version     int64                 `json:"version"`
	Frames      int                   `json:"frames"`
	NAtoms      int                   `json:"natoms"`
	Granularity string                `json:"granularity"`
	Sealed      bool                  `json:"sealed"`
	Subsets     map[string]LiveSubset `json:"subsets"`
}

// Tags returns the head's tags, sorted.
func (h *LiveHead) Tags() []string { return sortedKeys(h.Subsets) }

// sealedHead converts a committed manifest into the equivalent head, so
// watchers see a live dataset and its sealed successor through one API.
func sealedHead(m *Manifest) *LiveHead {
	h := &LiveHead{
		Logical:     m.Logical,
		Version:     -1, // sealed: version ordering no longer applies
		Frames:      m.Frames,
		NAtoms:      m.NAtoms,
		Granularity: m.Granularity,
		Sealed:      true,
		Subsets:     make(map[string]LiveSubset, len(m.Subsets)),
	}
	for tag, sub := range m.Subsets {
		h.Subsets[tag] = LiveSubset{
			NAtoms: sub.NAtoms, Bytes: sub.Bytes,
			Backend: sub.Backend, Ranges: sub.Ranges,
		}
	}
	return h
}

// LiveHead returns a dataset's current head: the published live.json while
// the dataset is growing, or a Sealed head synthesized from the manifest
// once it has committed. vfs.ErrNotExist means no such dataset (or one that
// was rolled back).
func (a *ADA) LiveHead(logical string) (*LiveHead, error) {
	h, _, err := a.liveHeadAndCRC(logical)
	return h, err
}

func unmarshalLiveHead(data []byte) (*LiveHead, error) {
	h := &LiveHead{}
	if err := json.Unmarshal(data, h); err != nil {
		return nil, fmt.Errorf("core: live head: %w", err)
	}
	return h, nil
}

// LiveIngest is an open streaming ingest session, the producer side of a
// live dataset: the one ingest session (ingestState) plus head publication.
// It is safe for one appender goroutine; Frames and Head may be called
// concurrently from others. Tailers learn of new heads through WaitLiveHead.
type LiveIngest struct {
	st *ingestState

	mu      sync.Mutex
	sealed  bool
	aborted bool
}

// OpenLiveIngest starts a streaming ingest: the container, journal, and
// staged subset writers are created exactly as for a one-shot ingest, the
// journal's begin record is marked live (so Recover preserves instead of
// rolling back), and an empty head is published for watchers.
func (a *ADA) OpenLiveIngest(logical string, pdbData []byte) (*LiveIngest, error) {
	st, err := a.prepareIngest(logical, pdbData, true)
	if err != nil {
		return nil, err
	}
	li := &LiveIngest{st: st}
	if err := li.publishHead(); err != nil {
		st.abort()
		return nil, fmt.Errorf("core: live ingest %s: %w", logical, err)
	}
	return li, nil
}

// ResumeLiveIngest reopens a live dataset after a crash or restart: the
// staged subsets are truncated back to the last journaled checkpoint
// (verifying the prefix CRC), the writers and journal are rebuilt over the
// surviving bytes, and the head is republished at the checkpoint, its
// version continuing from the last one published. pdbData must be the
// structure the dataset was opened with. The caller resumes producing from
// frame Frames().
func (a *ADA) ResumeLiveIngest(logical string, pdbData []byte) (*LiveIngest, error) {
	st, err := a.resumeSession(logical, pdbData, true)
	if err != nil {
		return nil, err
	}
	li := &LiveIngest{st: st}
	if err := li.publishHead(); err != nil {
		st.detach()
		return nil, fmt.Errorf("core: resume live %s: %w", logical, err)
	}
	return li, nil
}

// Frames returns the number of frames appended (and published) so far.
func (li *LiveIngest) Frames() int {
	li.mu.Lock()
	defer li.mu.Unlock()
	return li.st.report.Frames
}

// Head returns the currently published head.
func (li *LiveIngest) Head() LiveHead {
	li.mu.Lock()
	defer li.mu.Unlock()
	return li.headLocked()
}

func (li *LiveIngest) headLocked() LiveHead {
	st := li.st
	h := LiveHead{
		Logical:     st.logical,
		Version:     st.headVersion,
		Frames:      st.report.Frames,
		NAtoms:      st.natoms,
		Granularity: st.granularityName,
		Sealed:      li.sealed,
		Subsets:     make(map[string]LiveSubset, len(st.writers)),
	}
	for _, sw := range st.writers {
		h.Subsets[sw.tag] = LiveSubset{
			NAtoms:  sw.natoms,
			Bytes:   sw.storedBytes(),
			Backend: sw.backend,
			Ranges:  sw.ranges,
		}
	}
	return h
}

// closedLocked is why the session takes no more frames, nil while it does.
func (li *LiveIngest) closedLocked() error {
	if li.sealed || li.aborted {
		return fmt.Errorf("core: live ingest %s is closed", li.st.logical)
	}
	return li.st.err
}

// Append runs one XTC-encoded batch of whole frames through the session's
// frame loop, then journals a checkpoint and publishes the new head. It
// returns the number of frames appended. A torn final frame fails the call
// after the batch's complete frames have been published; the producer
// re-sends the frame intact. A failed write, checkpoint or publish instead
// ends the session — the subsets may no longer hold the same frames — and
// every later Append or Seal returns that error; Abort, or ResumeLiveIngest
// from the last checkpoint, is what is left. The byte stream across all
// Appends must be exactly what a one-shot Ingest of the dataset would have
// consumed, which is what makes Seal's output indistinguishable from it.
func (li *LiveIngest) Append(batch []byte) (int, error) {
	li.mu.Lock()
	defer li.mu.Unlock()
	if err := li.closedLocked(); err != nil {
		return 0, err
	}
	st := li.st
	before := st.report.Frames
	// The batch is decoded in line, not ahead: that source yields each
	// frame's exact encoded size, so the journaled Compressed counter stays
	// exact at every checkpoint — which is what keeps a post-crash resume's
	// manifest byte-identical to a one-shot ingest.
	srcErr := st.ingestFrames("live ingest", NewXTCTrajectory(bytes.NewReader(batch)))
	appended := st.report.Frames - before
	if st.err == nil && appended > 0 && st.checkpoint() == nil { // a failed checkpoint fails the session itself
		if err := li.publishHead(); err != nil {
			st.fail(fmt.Errorf("core: live ingest %s: %w", st.logical, err))
		}
	}
	if st.err != nil {
		return appended, st.err
	}
	return appended, srcErr
}

// publishHead atomically republishes live.index.<tag> for every subset and
// then live.json. The order matters: readers load the head first, so an
// index must never lag the head it is read under.
func (li *LiveIngest) publishHead() error {
	st := li.st
	a := st.a
	for _, sw := range st.writers {
		if err := a.republishDropping(st.logical, liveIndexPrefix+sw.tag,
			sw.backend, sw.ib.Index().Marshal()); err != nil {
			return err
		}
	}
	st.headVersion++
	head := li.headLocked()
	data, err := json.Marshal(&head)
	if err != nil {
		return err
	}
	return a.republishDropping(st.logical, liveHeadName, a.containers.Backends()[0], data)
}

// republishDropping atomically replaces a dropping's content: write under a
// staging name, then rename over the final name (same-backend, atomic).
func (a *ADA) republishDropping(logical, name, backend string, data []byte) error {
	if err := a.writeDropping(logical, stagingPrefix+name, backend, data); err != nil {
		return err
	}
	return a.containers.RenameDropping(logical, stagingPrefix+name, name)
}

// Seal converts the live dataset into an ordinary immutable container: the
// session's seal — the one-shot commit path unchanged (stage
// indexes/structure/labels, journal the commit record, rename everything,
// manifest last, retire the journal) — and then the live.* droppings are
// removed. The committed container is byte-identical to a one-shot Ingest
// of the same frames.
func (li *LiveIngest) Seal() (*IngestReport, error) {
	li.mu.Lock()
	defer li.mu.Unlock()
	if err := li.closedLocked(); err != nil {
		return nil, err
	}
	st := li.st
	// Journal any appended-but-unjournaled tail before tearing down, so a
	// crash inside Seal still recovers to the full prefix.
	if err := st.checkpoint(); err != nil {
		return nil, fmt.Errorf("core: seal %s: %w", st.logical, err)
	}
	report, err := st.seal()
	if err != nil {
		return nil, err
	}
	if err := st.a.sweepLive(st.logical); err != nil {
		return nil, st.fail(fmt.Errorf("core: seal %s: %w", st.logical, err))
	}
	li.sealed = true
	return report, nil
}

// Abort tears the live dataset down entirely: writers closed, journal
// closed, container removed. Readers see the dataset vanish.
func (li *LiveIngest) Abort() error {
	li.mu.Lock()
	defer li.mu.Unlock()
	if li.sealed || li.aborted {
		return nil
	}
	li.aborted = true
	li.st.abort()
	return nil
}

// sweepLive removes a container's live.* droppings (post-seal, or a
// recovery sweep after a crash mid-seal).
func (a *ADA) sweepLive(logical string) error {
	idx, err := a.containers.Index(logical)
	if err != nil {
		return err
	}
	for _, d := range idx {
		if d.Name == liveHeadName || strings.HasPrefix(d.Name, liveIndexPrefix) {
			if err := a.containers.RemoveDropping(logical, d.Name); err != nil {
				return err
			}
		}
	}
	return nil
}

// recoverLive repairs a live dataset after a kill: a session reopened from
// the journal alone — begin names the subsets, no structure is needed to
// publish — is cut back to the last checkpoint ck (any unjournaled tail is
// discarded; any published head can only be at or behind the checkpoint),
// republishes the live indexes and the head there, and detaches. The dataset
// stays live; ResumeLiveIngest continues it and Seal finishes it.
func (a *ADA) recoverLive(logical string, begin, ck *journalRecord) (RecoveryAction, error) {
	st := a.newIngestState(logical, begin.NAtoms, begin.Granularity)
	for _, jt := range begin.Tags {
		st.addWriter(&subsetWriter{tag: jt.Tag, backend: jt.Backend, natoms: jt.NAtoms, ranges: jt.Ranges})
	}
	defer st.detach()
	if err := st.cutBack(begin, ck); err != nil {
		return "", fmt.Errorf("recover live: %w", err)
	}
	li := &LiveIngest{st: st}
	if err := li.publishHead(); err != nil {
		return "", err
	}
	return RecoveryLive, nil
}
