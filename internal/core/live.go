package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"repro/internal/xtc"
)

// Streaming (live) ingest.
//
// A live dataset is an ingest that has not finished yet: a running
// simulation keeps appending frame batches while readers tail the growing
// head. The on-disk state is the PR-4 ingest journal extended into an
// append log — the staged subset droppings and the journal are exactly
// those of an interrupted one-shot ingest, so `Seal` is nothing more than
// running the ordinary atomic commit, and a crash at any point recovers
// through the same classification machinery.
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
// RecoveryLive: the staged subsets are truncated back to the last
// journaled checkpoint and the head republished, after which
// ResumeLiveIngest can continue appending.

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
func (h *LiveHead) Tags() []string {
	tags := make([]string, 0, len(h.Subsets))
	for t := range h.Subsets {
		tags = append(tags, t)
	}
	for i := 1; i < len(tags); i++ {
		for j := i; j > 0 && tags[j] < tags[j-1]; j-- {
			tags[j], tags[j-1] = tags[j-1], tags[j]
		}
	}
	return tags
}

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
	data, err := a.readDropping(logical, liveHeadName)
	if err == nil {
		return unmarshalLiveHead(data)
	}
	m, merr := a.Manifest(logical)
	if merr != nil {
		return nil, err // the original live.json error (typically ErrNotExist)
	}
	return sealedHead(m), nil
}

func unmarshalLiveHead(data []byte) (*LiveHead, error) {
	h := &LiveHead{}
	if err := json.Unmarshal(data, h); err != nil {
		return nil, fmt.Errorf("core: live head: %w", err)
	}
	return h, nil
}

// LiveIngest is an open streaming ingest session: the producer side of a
// live dataset. It is safe for one appender goroutine; Head/Watch may be
// called concurrently from others.
type LiveIngest struct {
	a     *ADA
	st    *ingestState
	start float64

	mu      sync.Mutex
	version int64
	sealed  bool
	aborted bool
	headCh  chan struct{} // closed and replaced on every publish
}

// OpenLiveIngest starts a streaming ingest: the container, journal, and
// staged subset writers are created exactly as for a one-shot ingest, the
// journal's begin record is marked live (so Recover preserves instead of
// rolling back), and an empty head is published for watchers.
func (a *ADA) OpenLiveIngest(logical string, pdbData []byte) (*LiveIngest, error) {
	var start float64
	if a.env != nil {
		start = a.env.Clock.Now()
	}
	st, err := a.prepareIngest(logical, pdbData, true)
	if err != nil {
		return nil, err
	}
	li := &LiveIngest{a: a, st: st, start: start, headCh: make(chan struct{})}
	if err := li.publishHead(); err != nil {
		st.abort()
		return nil, fmt.Errorf("core: live ingest %s: %w", logical, err)
	}
	return li, nil
}

// ResumeLiveIngest reopens a live dataset after a crash or restart: the
// staged subsets are truncated back to the last journaled checkpoint
// (verifying the prefix CRC), the writers and journal are rebuilt over the
// surviving bytes, and the head is republished at the checkpoint. pdbData
// must be the structure the dataset was opened with. The caller resumes
// producing from frame Frames().
func (a *ADA) ResumeLiveIngest(logical string, pdbData []byte) (*LiveIngest, error) {
	var start float64
	if a.env != nil {
		start = a.env.Clock.Now()
	}
	st, _, _, err := a.resumeStagedState(logical, pdbData, true)
	if err != nil {
		return nil, err
	}
	li := &LiveIngest{a: a, st: st, start: start, headCh: make(chan struct{})}
	if err := li.publishHead(); err != nil {
		st.closeAll()
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

// Watch returns a channel closed at the next head publish — the in-process
// notification path for tailing readers co-located with the producer.
func (li *LiveIngest) Watch() <-chan struct{} {
	li.mu.Lock()
	defer li.mu.Unlock()
	return li.headCh
}

func (li *LiveIngest) headLocked() LiveHead {
	st := li.st
	h := LiveHead{
		Logical:     st.logical,
		Version:     li.version,
		Frames:      st.report.Frames,
		NAtoms:      st.structure.NAtoms(),
		Granularity: st.granularityName,
		Sealed:      li.sealed,
		Subsets:     make(map[string]LiveSubset, len(st.writers)),
	}
	for _, sw := range st.writers {
		h.Subsets[sw.tag] = LiveSubset{
			NAtoms:  sw.natoms,
			Bytes:   sw.storedBytes(),
			Backend: sw.backend,
			Ranges:  st.tagRanges[sw.tag].String(),
		}
	}
	return h
}

// Append decodes one XTC-encoded batch of whole frames and appends them to
// every subset, then journals a checkpoint and publishes the new head. It
// returns the number of frames appended. A torn final frame fails the call
// after the batch's complete frames have been published; the producer
// re-sends the frame intact. The byte stream across all Appends must be
// exactly what a one-shot Ingest of the dataset would have consumed, which
// is what makes Seal's output indistinguishable from it.
func (li *LiveIngest) Append(batch []byte) (int, error) {
	li.mu.Lock()
	defer li.mu.Unlock()
	if li.sealed || li.aborted {
		return 0, fmt.Errorf("core: live ingest %s is closed", li.st.logical)
	}
	st := li.st
	// Scan frame-by-frame rather than wrapping a buffered Reader: the
	// scanner yields each frame's exact encoded bytes, so the journaled
	// Compressed counter stays exact at every checkpoint — which is what
	// keeps a post-crash resume's manifest byte-identical to a one-shot
	// ingest (buffered read-ahead would smear bytes across checkpoints).
	sc := xtc.NewScanner(bytes.NewReader(batch))
	appended := 0
	var decodeErr error
	for {
		t0 := time.Now()
		blob, err := sc.Next()
		if err == io.EOF {
			break
		}
		var frame *xtc.Frame
		if err == nil {
			frame, err = xtc.DecodeFrameBytes(blob)
		}
		li.a.im.decodeNS.Observe(time.Since(t0).Nanoseconds())
		if err != nil {
			decodeErr = fmt.Errorf("core: live ingest %s frame %d: %w",
				st.logical, st.report.Frames, err)
			break
		}
		consumed := int64(len(blob))
		li.a.chargeCPU("decompress", li.a.opts.Cost.decompressTime(consumed))
		li.a.chargeCPU("categorize", li.a.opts.Cost.categorizeTime(xtc.RawFrameSize(frame.NAtoms())))
		t1 := time.Now()
		if err := st.writeFrame(frame, consumed); err != nil {
			return appended, err
		}
		li.a.im.writeNS.Observe(time.Since(t1).Nanoseconds())
		appended++
	}
	if appended > 0 {
		if err := li.publishLocked(); err != nil {
			return appended, fmt.Errorf("core: live ingest %s: %w", st.logical, err)
		}
	}
	return appended, decodeErr
}

// publishLocked checkpoints the journal at the current frame (unless the
// frame loop just did) and republishes the head. Callers hold li.mu.
func (li *LiveIngest) publishLocked() error {
	st := li.st
	if st.ckptFrames != st.report.Frames {
		if err := st.checkpoint(); err != nil {
			return err
		}
	}
	return li.publishHead()
}

// publishHead atomically republishes live.index.<tag> for every subset and
// then live.json. The order matters: readers load the head first, so an
// index must never lag the head it is read under.
func (li *LiveIngest) publishHead() error {
	a := li.a
	st := li.st
	for _, sw := range st.writers {
		if err := a.republishDropping(st.logical, liveIndexPrefix+sw.tag,
			sw.backend, sw.ib.Index().Marshal()); err != nil {
			return err
		}
	}
	li.version++
	head := li.headLocked()
	data, err := json.Marshal(&head)
	if err != nil {
		return err
	}
	if err := a.republishDropping(st.logical, liveHeadName,
		a.containers.Backends()[0], data); err != nil {
		return err
	}
	close(li.headCh)
	li.headCh = make(chan struct{})
	return nil
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
// one-shot commit path runs unchanged (stage indexes/structure/labels,
// journal the commit record, rename everything, manifest last, retire the
// journal) and the live.* droppings are removed. The committed container
// is byte-identical to a one-shot Ingest of the same frames.
func (li *LiveIngest) Seal() (*IngestReport, error) {
	li.mu.Lock()
	defer li.mu.Unlock()
	if li.sealed || li.aborted {
		return nil, fmt.Errorf("core: live ingest %s is closed", li.st.logical)
	}
	st := li.st
	// Publish any appended-but-unjournaled tail before tearing down, so a
	// crash inside Seal still recovers to the full prefix.
	if st.ckptFrames != st.report.Frames {
		if err := st.checkpoint(); err != nil {
			return nil, fmt.Errorf("core: seal %s: %w", st.logical, err)
		}
	}
	st.closeAll()
	report, err := st.finish(li.start)
	if err != nil {
		return nil, err
	}
	if err := li.a.sweepLive(st.logical); err != nil {
		return nil, fmt.Errorf("core: seal %s: %w", st.logical, err)
	}
	li.sealed = true
	close(li.headCh) // wake watchers; LiveHead now reports the sealed manifest
	li.headCh = make(chan struct{})
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
	close(li.headCh)
	li.headCh = make(chan struct{})
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

// recoverLive repairs a live dataset after a kill: the staged subsets are
// truncated back to the last journaled checkpoint (any unjournaled tail is
// discarded, any published head can only be at or behind the checkpoint),
// prefix CRCs are verified, the live indexes and head are republished at
// the checkpoint, and the journal is rewritten compactly. The dataset
// stays live; ResumeLiveIngest continues it and Seal finishes it.
func (a *ADA) recoverLive(logical string, recs []journalRecord) (RecoveryAction, error) {
	begin := recs[0]
	ck := journalRecord{Type: journalCkpt}
	for _, rec := range recs[1:] {
		if rec.Type == journalCkpt {
			ck = rec
		}
	}
	version := int64(0)
	if data, err := a.readDropping(logical, liveHeadName); err == nil {
		if h, err := unmarshalLiveHead(data); err == nil {
			version = h.Version
		}
	}
	head := &LiveHead{
		Logical:     logical,
		Version:     version + 1,
		Frames:      ck.Frames,
		NAtoms:      begin.NAtoms,
		Granularity: begin.Granularity,
		Subsets:     map[string]LiveSubset{},
	}
	for _, jt := range begin.Tags {
		prefix, idx, err := a.checkpointedPrefix(logical, jt.Tag, ck.Subsets[jt.Tag], ck.Frames)
		if err != nil {
			return "", fmt.Errorf("recover live %w", err)
		}
		// Replace the staged dropping with exactly the checkpointed prefix
		// — by rename, never truncating in place: a tailing reader may be
		// opening it right now under a head the dead producer published —
		// and rebuild + republish its index.
		if err := a.republishDropping(logical, stagingPrefix+subsetPrefix+jt.Tag, jt.Backend, prefix); err != nil {
			return "", err
		}
		var ib xtc.IndexBuilder
		if idx != nil {
			for i := 0; i < idx.Frames(); i++ {
				ib.AddWithCRC(idx.Size(i), idx.NAtoms(i), idx.CRC(i))
			}
		}
		if err := a.republishDropping(logical, liveIndexPrefix+jt.Tag, jt.Backend, ib.Index().Marshal()); err != nil {
			return "", err
		}
		head.Subsets[jt.Tag] = LiveSubset{
			NAtoms: jt.NAtoms, Bytes: int64(len(prefix)),
			Backend: jt.Backend, Ranges: jt.Ranges,
		}
	}
	data, err := json.Marshal(head)
	if err != nil {
		return "", err
	}
	if err := a.republishDropping(logical, liveHeadName, a.containers.Backends()[0], data); err != nil {
		return "", err
	}
	// Rewrite the journal compactly: begin plus the one surviving ckpt.
	j, err := a.openJournal(logical)
	if err != nil {
		return "", err
	}
	if err := j.append(&begin); err != nil {
		j.close()
		return "", err
	}
	if ck.Frames > 0 {
		if err := j.append(&ck); err != nil {
			j.close()
			return "", err
		}
	}
	if err := j.close(); err != nil {
		return "", err
	}
	return RecoveryLive, nil
}
