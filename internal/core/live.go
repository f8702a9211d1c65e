package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/vfs"
	"repro/internal/xtc"
)

// Streaming (live) ingest.
//
// A live dataset is an ingest that has not finished yet: a running
// simulation keeps appending frame batches while readers tail the growing
// head. The writer is the one ingest session (ingestState, ada.go) held open
// across calls: Append runs a batch through the session's frame loop,
// decoded ahead by the one-shot ingest's source, Seal is the session's seal,
// and the subset droppings and the journal are exactly those of an
// interrupted one-shot ingest, so a crash at any point recovers through the
// same classification machinery. A subset keeps one name, subset.<tag>,
// from its first append until after the seal.
//
// What streaming adds is a published head. After every appended batch the
// writer journals a checkpoint and then puts two kinds of read-side
// droppings, strictly in this order, on one background goroutine while the
// producer goes on to its next batch:
//
//	live.index.<tag> — the subset's frame index up to the checkpoint
//	live.json        — the head: version, frame count, per-subset sizes
//
// Each put replaces the dropping whole in place (plfs.PutDropping: a temp
// sibling renamed over it on its own backend, the container index written
// only the first time), and readers gate on live.json, so a reader never
// observes frames the journal has not made durable: subset bytes >=
// journaled checkpoint >= published head at every instant, which is what
// makes every observed prefix crash-stable. A reader that loads live.json
// at version v and then live.index.<tag> may see a NEWER index — indexes
// are published before the head — but never an older one, and it reads
// only head.Frames entries of it.
//
// The puts are snapshotted under the session lock when Append hands them
// off, so the head they publish is that batch's. The next Append decodes its
// batch while they run but issues its first backend op only once they have
// landed, and Seal and Abort wait for them too: the backends see the same
// op sequence as if every Append published before it returned, and one put
// in flight at a time keeps the published version increasing.
//
// Seal commits the dataset through the one-shot path (put the indexes,
// structure and labels, then the manifest, retire the journal) and then
// removes the live.* droppings. It renames nothing: the payload a reader
// tails is the one the manifest publishes. The result is byte-identical to
// a one-shot Ingest of the same frames. Recover classifies a killed live
// dataset as RecoveryLive: the session is reopened from the journal, cut
// back to the last checkpoint (cutBack, durable.go — the same cut
// ResumeLiveIngest makes), republishes the head there and detaches.

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
	// free is the session's one recycle list: each batch decodes into the
	// frames the batches before it wrote out and handed back. sc is its one
	// Scanner, whose read and frame buffers every batch reuses.
	free xtc.RecycleList
	sc   *xtc.Scanner

	mu      sync.Mutex
	sealed  bool
	aborted bool
	// pub is the head publication in flight, nil when none is.
	pub *publication
}

// publication is one head's puts running in the background: done closes
// once they have all landed or one has failed with err.
type publication struct {
	done chan struct{}
	err  error
}

// livePut is one read-side dropping of a head, snapshotted for its put.
type livePut struct {
	name, backend string
	data          []byte
}

func newLiveIngest(st *ingestState) *LiveIngest {
	return &LiveIngest{st: st, free: xtc.NewRecycleList(), sc: xtc.NewScanner(nil)}
}

// OpenLiveIngest starts a streaming ingest: the container, journal, and
// subset writers are created exactly as for a one-shot ingest, the
// journal's begin record is marked live (so Recover preserves instead of
// rolling back), and an empty head is published for watchers.
func (a *ADA) OpenLiveIngest(logical string, pdbData []byte) (*LiveIngest, error) {
	st, err := a.prepareIngest(logical, pdbData, true)
	if err != nil {
		return nil, err
	}
	li := newLiveIngest(st)
	if err := li.publishHead(); err != nil {
		st.abort()
		return nil, fmt.Errorf("core: live ingest %s: %w", logical, err)
	}
	return li, nil
}

// ResumeLiveIngest reopens a live dataset after a crash or restart: the
// subsets are cut back to the last journaled checkpoint
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
	li := newLiveIngest(st)
	if err := li.publishHead(); err != nil {
		st.detach()
		return nil, fmt.Errorf("core: resume live %s: %w", logical, err)
	}
	return li, nil
}

// Frames returns the number of frames appended (and checkpointed) so far.
// The head publishing the last batch's may still be landing: Head.
func (li *LiveIngest) Frames() int {
	li.mu.Lock()
	defer li.mu.Unlock()
	return li.st.report.Frames
}

// Head returns the head of the last appended batch: the one published, or
// the one its background put is publishing — tailers see it through
// WaitLiveHead once it has landed.
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
// frame loop and journals a checkpoint: once it returns, the batch is
// durable. It hands the batch's head to a background put and returns the
// number of frames appended; tailers see the head once the put has landed,
// which the next Append, Seal or Abort waits for before its first backend op
// (the next Append decodes its batch meanwhile). A torn final frame fails
// the call after the batch's complete frames have been appended and their
// head handed off; the producer re-sends the frame intact. A failed write,
// checkpoint or head put instead ends the session — the subsets may no
// longer hold the same frames, or the head no longer describe them — and
// every later Append or Seal returns that error (a failed put, from the call
// after the one that handed it off); Abort, or ResumeLiveIngest from the
// last checkpoint, is what is left. The byte stream across all Appends must
// be exactly what a one-shot Ingest of the dataset would have consumed,
// which is what makes Seal's output indistinguishable from it.
func (li *LiveIngest) Append(batch []byte) (int, error) {
	li.mu.Lock()
	defer li.mu.Unlock()
	if err := li.closedLocked(); err != nil {
		return 0, err
	}
	st := li.st
	before := st.report.Frames
	// The batch is decoded ahead, by the one-shot ingest's source (in line
	// on one core), into the frames earlier batches handed back. It reports
	// each frame's exact encoded size, so the journaled Compressed counter
	// stays exact at every checkpoint — which is what keeps a post-crash
	// resume's manifest byte-identical to a one-shot ingest. Decoding starts
	// while the previous head is still landing. Stop, not Close: the caller
	// owns batch again once Append returns, and the next batch scans with the
	// same Scanner, so the decoder must have stopped reading; a bytes.Reader
	// never blocks the wait.
	src := st.a.decodeAheadRecycling(bytes.NewReader(batch), li.free, li.sc)
	if err := li.landLocked(); err != nil {
		src.Stop()
		return 0, err
	}
	srcErr := st.ingestFrames("live ingest", src)
	src.Stop()
	appended := st.report.Frames - before
	if st.err == nil && appended > 0 && st.checkpoint() == nil { // a failed checkpoint fails the session itself
		if puts, err := li.headPuts(); err != nil {
			st.fail(fmt.Errorf("core: live ingest %s: %w", st.logical, err))
		} else {
			li.publishAsync(puts)
		}
	}
	if st.err != nil {
		return appended, st.err
	}
	return appended, srcErr
}

// headPuts snapshots the next head: live.index.<tag> for every subset, then
// live.json at the next version. They go out in that order, each replaced
// whole in place (plfs.PutDropping): readers load the head first, so an
// index must never lag the head it is read under.
func (li *LiveIngest) headPuts() ([]livePut, error) {
	st := li.st
	puts := make([]livePut, 0, len(st.writers)+1)
	for _, sw := range st.writers {
		puts = append(puts, livePut{liveIndexPrefix + sw.tag, sw.backend, sw.ib.Index().Marshal()})
	}
	st.headVersion++
	head := li.headLocked()
	data, err := json.Marshal(&head)
	if err != nil {
		return nil, err
	}
	return append(puts, livePut{liveHeadName, st.a.containers.Backends()[0], data}), nil
}

// putHead runs one head's puts in order.
func (st *ingestState) putHead(puts []livePut) error {
	for _, p := range puts {
		if err := st.a.containers.PutDropping(st.logical, p.name, p.backend, p.data); err != nil {
			return err
		}
	}
	return nil
}

// publishHead publishes the next head before it returns: how a session
// opens, resumes or is recovered.
func (li *LiveIngest) publishHead() error {
	puts, err := li.headPuts()
	if err != nil {
		return err
	}
	return li.st.putHead(puts)
}

// publishAsync hands puts to the background: the one publication in flight.
func (li *LiveIngest) publishAsync(puts []livePut) {
	p := &publication{done: make(chan struct{})}
	li.pub = p
	go func() {
		defer close(p.done)
		p.err = li.st.putHead(puts)
	}()
}

// landLocked waits for the publication in flight, if any, and fails the
// session with its error.
func (li *LiveIngest) landLocked() error {
	p := li.pub
	if p == nil {
		return nil
	}
	<-p.done
	li.pub = nil
	if p.err != nil {
		return li.st.fail(fmt.Errorf("core: live ingest %s: %w", li.st.logical, p.err))
	}
	return nil
}

// Seal converts the live dataset into an ordinary immutable container: once
// the last head has landed, the session's seal — the one-shot commit path
// unchanged (put indexes/structure/labels, then the manifest, retire the
// journal) — and then the live.* droppings are removed, only once the
// manifest has landed. The committed container is byte-identical to a
// one-shot Ingest of the same frames.
func (li *LiveIngest) Seal() (*IngestReport, error) {
	li.mu.Lock()
	defer li.mu.Unlock()
	if err := li.closedLocked(); err != nil {
		return nil, err
	}
	if err := li.landLocked(); err != nil {
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

// Abort tears the live dataset down entirely: the head in flight lands (or
// fails), then writers closed, journal closed, container removed. Readers
// see the dataset vanish.
func (li *LiveIngest) Abort() error {
	li.mu.Lock()
	defer li.mu.Unlock()
	if li.sealed || li.aborted {
		return nil
	}
	li.aborted = true
	li.landLocked() // a failed put no longer matters: the container goes
	li.st.abort()
	return nil
}

// sweepLive removes a container's live.* droppings once its manifest has
// landed.
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
		if !validTag(jt.Tag) || !slices.Contains(a.containers.Backends(), jt.Backend) {
			return "", fmt.Errorf("recover live: journaled tag %q on backend %q: %w", jt.Tag, jt.Backend, vfs.ErrCorrupted)
		}
		st.writers = append(st.writers, &subsetWriter{tag: jt.Tag, backend: jt.Backend, natoms: jt.NAtoms, ranges: jt.Ranges})
	}
	defer st.detach()
	if err := st.cutBack(begin, ck); err != nil {
		return "", fmt.Errorf("recover live: %w", err)
	}
	if err := newLiveIngest(st).publishHead(); err != nil {
		return "", err
	}
	return RecoveryLive, nil
}
