package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/vfs"
	"repro/internal/xtc"
)

// Crash-consistent ingest.
//
// An ingest writes every dropping under its final name from the start, and
// the manifest put (plfs.PutDropping, replaced whole in place) is its one
// commit point: readers gate on manifest.json, so nothing an ingest has
// written is visible before that put lands. Until then an append-only
// journal dropping records what the ingest is doing:
//
//	begin — identity of the ingest: tags, backends, atom ranges
//	ckpt  — durable high-water mark: frames, per-subset bytes + CRC32C
//
// Commit closes the journal, puts the manifest and removes the journal. A
// crash at any op therefore leaves the container either committed (manifest
// present) or invisible to readers. Recover sweeps a committed container's
// leftovers, cuts a live one back to its last checkpoint, and rolls
// anything else back; ResumeIngest instead continues an interrupted ingest
// from its last checkpoint.
//
// A container left in flight by a binary that wrote staging.* names and
// journaled a commit record is not a supported input; finish or abort such
// ingests before upgrading. Recover refuses one whose journal holds a
// commit record (vfs.ErrCorrupted) and a live one past its first checkpoint
// (no subset.<tag>: vfs.ErrNotExist); it never panics on either.

// Journal record types.
const (
	journalBegin = "begin"
	journalCkpt  = "ckpt"
)

// ErrNotResumable is returned by ResumeIngest and ResumeLiveIngest when the
// container's journal does not describe an ingest the call can continue: it
// has no begin record, began the other kind of session, or began with
// another structure.
var ErrNotResumable = errors.New("core: ingest not resumable")

// journalCkptEvery is the ingest frame loop's checkpoint interval in frames.
const journalCkptEvery = 32

// journalRecord is one line of the ingest journal.
type journalRecord struct {
	Type string `json:"type"`
	// begin fields. Live marks a streaming ingest (OpenLiveIngest): the
	// dataset is expected to be mid-append indefinitely, so Recover
	// preserves the checkpointed prefix instead of rolling it back.
	Logical     string       `json:"logical,omitempty"`
	Granularity string       `json:"granularity,omitempty"`
	NAtoms      int          `json:"natoms,omitempty"`
	Tags        []journalTag `json:"tags,omitempty"`
	Live        bool         `json:"live,omitempty"`
	// ckpt fields.
	Frames     int                      `json:"frames,omitempty"`
	Compressed int64                    `json:"compressed,omitempty"`
	Raw        int64                    `json:"raw,omitempty"`
	Subsets    map[string]journalSubset `json:"subsets,omitempty"`
}

// journalTag names one subset the ingest is producing.
type journalTag struct {
	Tag     string `json:"tag"`
	Backend string `json:"backend"`
	NAtoms  int    `json:"natoms"`
	Ranges  string `json:"ranges"`
}

// journalSubset is one subset's durable high-water mark at a checkpoint.
type journalSubset struct {
	Bytes int64  `json:"bytes"`
	CRC   uint32 `json:"crc"`
}

// journalWriter appends records to the open journal dropping.
type journalWriter struct {
	f vfs.File
}

func (a *ADA) openJournal(logical string) (*journalWriter, error) {
	// The journal lives on the canonical (first) backend, beside the
	// container index.
	f, err := a.containers.CreateDropping(logical, droppingJournal, a.containers.Backends()[0])
	if err != nil {
		return nil, err
	}
	return &journalWriter{f: f}, nil
}

func (j *journalWriter) append(rec *journalRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if _, err := j.f.Write(data); err != nil {
		return fmt.Errorf("core: journal: %w", err)
	}
	return nil
}

func (j *journalWriter) close() error { return j.f.Close() }

// readJournal parses a container's journal. A torn final line (the crash
// landed mid-append) is silently dropped — everything before it is intact
// by construction. A record of any type but begin and ckpt — a commit
// record an older binary journaled, say — is vfs.ErrCorrupted.
func (a *ADA) readJournal(logical string) ([]journalRecord, error) {
	data, err := a.readDropping(logical, droppingJournal)
	if err != nil {
		return nil, err
	}
	var recs []journalRecord
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			break
		}
		if rec.Type != journalBegin && rec.Type != journalCkpt {
			return nil, fmt.Errorf("core: %s journal record %d has type %q: %w", logical, len(recs), rec.Type, vfs.ErrCorrupted)
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// RecoveryAction reports what Recover did to one container.
type RecoveryAction string

const (
	// RecoveryClean: the dataset was committed; nothing to do.
	RecoveryClean RecoveryAction = "clean"
	// RecoverySwept: committed, but a leftover journal, live or staging
	// dropping from the post-commit window was removed.
	RecoverySwept RecoveryAction = "swept"
	// RecoveryRolledBack: the ingest never reached commit; the container
	// was removed.
	RecoveryRolledBack RecoveryAction = "rolledback"
	// RecoveryLive: a streaming ingest was killed mid-append; its
	// subsets were cut back to the last journaled checkpoint and the
	// live head republished. The dataset remains live — ResumeLiveIngest
	// continues it, Seal finishes it.
	RecoveryLive RecoveryAction = "live"
)

// Recover classifies every container and repairs each interrupted ingest:
// committed datasets are left alone (post-commit leftovers swept), live
// ones are cut back to their last checkpoint, and everything else is rolled
// back. Call it once at startup before serving reads.
func (a *ADA) Recover() (map[string]RecoveryAction, error) {
	names, err := a.containers.ListContainers()
	if err != nil {
		return nil, err
	}
	out := make(map[string]RecoveryAction, len(names))
	for _, logical := range names {
		act, err := a.RecoverDataset(logical)
		if err != nil {
			return out, fmt.Errorf("core: recover %s: %w", logical, err)
		}
		out[logical] = act
	}
	return out, nil
}

// RecoverDataset runs crash recovery for one container.
func (a *ADA) RecoverDataset(logical string) (RecoveryAction, error) {
	if data, err := a.readDropping(logical, droppingManifest); err == nil {
		if _, err := unmarshalManifest(data); err == nil {
			return a.sweepCommitted(logical)
		}
	}
	recs, err := a.readJournal(logical)
	if errors.Is(err, vfs.ErrCorrupted) {
		return "", err
	}
	if err != nil || len(recs) == 0 {
		// No manifest and no usable journal: the crash landed before the
		// begin record became durable. Nothing is recoverable.
		return a.rollback(logical)
	}
	if recs[0].Type == journalBegin && recs[0].Live {
		return a.recoverLive(logical, &recs[0], lastCheckpoint(recs))
	}
	return a.rollback(logical)
}

func (a *ADA) rollback(logical string) (RecoveryAction, error) {
	if err := a.containers.RemoveContainer(logical); err != nil {
		return "", err
	}
	return RecoveryRolledBack, nil
}

// sweepCommitted removes post-commit leftovers from a dataset whose
// manifest already landed: the journal and stray staging droppings (an
// ingest's post-commit window, or a migration's staged copy), then the
// orphan files and dangling index entries a torn cross-backend
// ReplaceDropping leaves, and finally folds any migration that published
// but never rewrote the manifest back into the manifest's placement
// fields.
func (a *ADA) sweepCommitted(logical string) (RecoveryAction, error) {
	idx, err := a.containers.Index(logical)
	if err != nil {
		return "", err
	}
	swept := false
	for _, d := range idx {
		if d.Name == droppingJournal || strings.HasPrefix(d.Name, stagingPrefix) ||
			d.Name == liveHeadName || strings.HasPrefix(d.Name, liveIndexPrefix) {
			if err := a.containers.RemoveDropping(logical, d.Name); err != nil {
				return "", err
			}
			swept = true
		}
	}
	orphans, err := a.containers.SweepOrphans(logical)
	if err != nil {
		return "", err
	}
	reconciled, err := a.reconcilePlacement(logical)
	if err != nil {
		return "", err
	}
	if swept || len(orphans) > 0 || reconciled {
		return RecoverySwept, nil
	}
	return RecoveryClean, nil
}

// ResumeIngest continues an interrupted ingest from its last journaled
// checkpoint instead of rolling it back: the subsets are cut back to the
// checkpoint (dropping any unjournaled tail), their index builders
// and running checksums are reconstructed from the surviving bytes, the
// already-persisted frames are skipped on the source stream, and the
// ingest then runs to a normal atomic commit. pdbData and traj must be the
// same inputs the interrupted ingest was given. As in Ingest, decoding
// starts before the session is resumed, so a failed resume may have
// consumed part of traj.
func (a *ADA) ResumeIngest(logical string, pdbData []byte, traj io.Reader) (*IngestReport, error) {
	src := a.decodeAhead(traj)
	defer src.Close()
	st, err := a.resumeSession(logical, pdbData, false)
	if err != nil {
		return nil, err
	}
	// Skip the frames the checkpoint already persisted, then run the rest
	// through the session's frame loop. A failure leaves the container as
	// it is — journaled and uncommitted — for another resume.
	for i := 0; i < st.report.Frames; i++ {
		if _, _, err := src.ReadFrameSize(); err != nil {
			st.detach()
			return nil, fmt.Errorf("core: resume %s: source ended at frame %d, checkpoint has %d: %w",
				logical, i, st.report.Frames, err)
		}
	}
	if err := st.ingestFrames("resume", src); err != nil {
		st.detach()
		return nil, err
	}
	return st.seal()
}

// checkpointedPrefix loads one subset cut back to its checkpoint mark (the
// zero mark when no checkpoint was reached, which also tolerates a dropping
// the crash predates) and verifies it: a mark that is not negative, a
// dropping long enough, the journaled CRC32C, and exactly the checkpoint's
// frame count, an empty prefix holding none. It returns the prefix and its
// checksummed frame index (nil when empty).
func (a *ADA) checkpointedPrefix(logical, tag string, mark journalSubset, frames int) ([]byte, *xtc.Index, error) {
	if mark.Bytes < 0 {
		return nil, nil, fmt.Errorf("subset %s: checkpoint at %d bytes: %w", tag, mark.Bytes, vfs.ErrCorrupted)
	}
	prefix, err := a.readDropping(logical, subsetPrefix+tag)
	if err != nil && !(mark.Bytes == 0 && errors.Is(err, vfs.ErrNotExist)) {
		return nil, nil, fmt.Errorf("subset %s: %w", tag, err)
	}
	if int64(len(prefix)) < mark.Bytes {
		// The journal promised bytes that never became durable — the
		// backend lies about write ordering. Nothing trustworthy.
		return nil, nil, fmt.Errorf("subset %s: dropping is %d bytes, checkpoint says %d: %w",
			tag, len(prefix), mark.Bytes, vfs.ErrCorrupted)
	}
	prefix = prefix[:mark.Bytes]
	if mark.CRC != 0 && xtc.CRC32C(prefix) != mark.CRC {
		return nil, nil, fmt.Errorf("subset %s: checkpointed prefix fails its checksum: %w", tag, vfs.ErrCorrupted)
	}
	if len(prefix) == 0 && frames == 0 {
		return nil, nil, nil
	}
	idx, err := xtc.BuildIndexChecksummed(bytes.NewReader(prefix), int64(len(prefix)))
	if err != nil {
		return nil, nil, fmt.Errorf("subset %s: checkpointed prefix: %w: %w", tag, err, vfs.ErrCorrupted)
	}
	if idx.Frames() != frames {
		return nil, nil, fmt.Errorf("subset %s: prefix holds %d frames, checkpoint says %d: %w",
			tag, idx.Frames(), frames, vfs.ErrCorrupted)
	}
	return prefix, idx, nil
}

// lastCheckpoint returns the journal's latest checkpoint record — the zero
// checkpoint (restart from frame 0) when the ingest never reached one.
func lastCheckpoint(recs []journalRecord) *journalRecord {
	ck := &journalRecord{Type: journalCkpt}
	for i := range recs {
		if recs[i].Type == journalCkpt {
			ck = &recs[i]
		}
	}
	return ck
}

// resumeSession reopens the session of an interrupted ingest at its last
// journaled checkpoint: the structure is analyzed again and checked against
// the journal's begin record, then cutBack attaches the writers. ResumeIngest
// (live=false) and ResumeLiveIngest (live=true) share it; the begin record's
// Live flag must match, since the two sessions have different commit rules.
func (a *ADA) resumeSession(logical string, pdbData []byte, live bool) (*ingestState, error) {
	st, err := a.analyzeIngest(logical, pdbData)
	if err != nil {
		return nil, err
	}
	recs, err := a.readJournal(logical)
	if err != nil {
		return nil, fmt.Errorf("core: resume %s: no journal (nothing to resume): %w", logical, err)
	}
	if len(recs) == 0 || recs[0].Type != journalBegin {
		return nil, fmt.Errorf("core: resume %s: journal has no begin record, run Recover: %w", logical, ErrNotResumable)
	}
	begin := &recs[0]
	var mismatch string
	switch {
	case live && !begin.Live:
		mismatch = "not a live ingest; use ResumeIngest"
	case begin.Live && !live:
		mismatch = "live ingest; use ResumeLiveIngest"
	case st.natoms != begin.NAtoms:
		mismatch = fmt.Sprintf("structure has %d atoms, journal began with %d", st.natoms, begin.NAtoms)
	case len(st.writers) != len(begin.Tags):
		mismatch = fmt.Sprintf("categorization yields %d tags, journal began with %d", len(st.writers), len(begin.Tags))
	}
	for i, sw := range st.writers {
		if mismatch == "" && (begin.Tags[i].Tag != sw.tag || begin.Tags[i].Ranges != sw.ranges) {
			mismatch = fmt.Sprintf("tag %q does not match the journaled ingest", sw.tag)
		}
	}
	if mismatch != "" {
		return nil, fmt.Errorf("core: resume %s: %s: %w", logical, mismatch, ErrNotResumable)
	}
	if !live {
		// The manifest put is the commit: a journal beside it is a leftover
		// for Recover to sweep, and cutting the committed subsets back
		// would tear the dataset.
		if _, err := a.Manifest(logical); err == nil {
			return nil, fmt.Errorf("core: resume %s: already committed, run Recover: %w", logical, ErrNotResumable)
		}
	}
	if err := st.cutBack(begin, lastCheckpoint(recs)); err != nil {
		st.detach()
		return nil, fmt.Errorf("core: resume %s: %w", logical, err)
	}
	return st, nil
}

// cutBack cuts st's journaled container back to the checkpoint ck and
// attaches the session to what is left; recoverLive and the two resumes
// share it. Every subset is replaced by its verified checkpointed prefix,
// written under a staging name and published over subset.<tag> with
// plfs.ReplaceDropping — never truncated in place: a live dataset's readers
// may be opening it under a head the dead producer published, and must never
// find it shorter than that head. The writer keeps the new dropping open,
// index builder and running checksum rebuilt over the prefix; the counters
// are restored; the journal is rewritten as begin plus that one checkpoint;
// and a live head's version carries over. A one-shot ingest that died
// inside its seal may already have put index.<tag> over the whole subset;
// that index goes before the shorter prefix is published, so the container
// never holds an index past its subset's end (the seal puts it again). On
// an error the caller detaches.
func (st *ingestState) cutBack(begin, ck *journalRecord) error {
	a := st.a
	if ck.Frames < 0 || ck.Compressed < 0 || ck.Raw < 0 {
		return fmt.Errorf("checkpoint of %d frames, %d compressed and %d raw bytes: %w",
			ck.Frames, ck.Compressed, ck.Raw, vfs.ErrCorrupted)
	}
	if begin.Live {
		if data, err := a.readDropping(st.logical, liveHeadName); err == nil {
			if h, err := unmarshalLiveHead(data); err == nil {
				st.headVersion = h.Version
			}
		}
	}
	for _, sw := range st.writers {
		prefix, idx, err := a.checkpointedPrefix(st.logical, sw.tag, ck.Subsets[sw.tag], ck.Frames)
		if err != nil {
			return err
		}
		if !begin.Live {
			err := a.containers.RemoveDropping(st.logical, indexPrefix+sw.tag)
			if err != nil && !errors.Is(err, vfs.ErrNotExist) {
				return fmt.Errorf("subset %s: %w", sw.tag, err)
			}
		}
		name := subsetPrefix + sw.tag
		f, err := a.containers.CreateDropping(st.logical, stagingPrefix+name, sw.backend)
		if err != nil {
			return err
		}
		sw.attach(f, !a.opts.DisableChecksums, prefix)
		if _, err = f.Write(prefix); err == nil {
			err = a.containers.ReplaceDropping(st.logical, stagingPrefix+name, name)
		}
		if err != nil {
			return fmt.Errorf("subset %s: %w", sw.tag, err)
		}
		for i := 0; idx != nil && i < idx.Frames(); i++ {
			sw.indexFrame(idx.Size(i), idx.NAtoms(i), idx.CRC(i))
		}
	}
	st.report.Frames, st.report.Compressed, st.report.Raw = ck.Frames, ck.Compressed, ck.Raw

	var err error
	if st.journal, err = a.openJournal(st.logical); err != nil {
		return err
	}
	if err := st.journal.append(begin); err != nil {
		return err
	}
	return st.checkpoint()
}
