package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/pdb"
	"repro/internal/plfs"
	"repro/internal/rangelist"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/xtc"
)

// Container dropping names.
const (
	droppingPDB      = "structure.pdb"
	droppingLabels   = "labels.json"
	droppingManifest = "manifest.json"
	droppingJournal  = "ingest.journal"
	subsetPrefix     = "subset."
	indexPrefix      = "index."
	// stagingPrefix marks a copy written aside and published over its
	// final name with plfs.ReplaceDropping: a resume's cut subset prefix, a
	// migration's verified copy.
	stagingPrefix = "staging."
)

// ErrUnknownTag is returned for a tag the dataset was not ingested with.
var ErrUnknownTag = errors.New("core: unknown tag")

// Placement maps tags to backend names. Tags without an entry fall back to
// the default backend (the last configured one, by convention the cheaper
// bulk store).
type Placement map[string]string

// DefaultPlacement is the paper's policy: the active "p"/"protein" subsets
// on the first backend (SSD-backed), everything else on the last (HDD).
func DefaultPlacement(backends []string) Placement {
	if len(backends) == 0 {
		return Placement{}
	}
	fast, slow := backends[0], backends[len(backends)-1]
	return Placement{
		TagProtein: fast,
		"protein":  fast,
		"ligand":   fast,
		TagMisc:    slow,
		"water":    slow,
		"lipid":    slow,
		"ion":      slow,
		"other":    slow,
	}
}

// Options configures an ADA instance.
type Options struct {
	Granularity Granularity
	Placement   Placement // nil = DefaultPlacement over the container backends
	Cost        StorageCost
	// Schema, when set, replaces the built-in categorizer with the
	// user-described one (the paper's "dynamic data categorizing and
	// labeling interface"). Schema placement entries override Placement.
	Schema *Schema
	// Metrics selects the runtime metrics registry (nil = metrics.Default).
	Metrics *metrics.Registry
	// DisableChecksums skips all CRC32C computation (no v2 indexes, no
	// manifest checksums). Exists so the checksum overhead can be
	// benchmarked; production ingests should leave it off.
	DisableChecksums bool
}

// ADA is one middleware instance bound to a PLFS-style container store.
type ADA struct {
	containers *plfs.FS
	env        *sim.Env
	opts       Options
	defaultBE  string
	reg        *metrics.Registry
	im         ingestMetrics
	vm         verifyMetrics
}

// ingestMetrics are the real-time (wall-clock) handles for the ingest
// pipeline's stages; the virtual-clock charges (cost.go) model the paper's
// hardware, these measure the Go process itself.
type ingestMetrics struct {
	ingests         *metrics.Counter
	frames          *metrics.Counter
	bytesCompressed *metrics.Counter
	bytesRaw        *metrics.Counter
	bytesWritten    *metrics.Counter
	decodeNS        *metrics.Histogram // per-frame decompress+decode
	writeNS         *metrics.Histogram // per-frame categorize+split+write
	progressFrames  *metrics.Gauge     // frames sequenced by the in-flight ingest (live progress)
}

func newIngestMetrics(reg *metrics.Registry) ingestMetrics {
	return ingestMetrics{
		ingests:         reg.Counter("ingest.runs"),
		frames:          reg.Counter("ingest.frames"),
		bytesCompressed: reg.Counter("ingest.bytes.compressed"),
		bytesRaw:        reg.Counter("ingest.bytes.raw"),
		bytesWritten:    reg.Counter("ingest.bytes.written"),
		decodeNS:        reg.Histogram("ingest.decode.ns"),
		writeNS:         reg.Histogram("ingest.write.ns"),
		progressFrames:  reg.Gauge("ingest.progress_frames"),
	}
}

// New returns an ADA instance. env may be nil to disable time accounting.
func New(containers *plfs.FS, env *sim.Env, opts Options) *ADA {
	backends := containers.Backends()
	if opts.Placement == nil {
		opts.Placement = DefaultPlacement(backends)
	}
	if opts.Cost == (StorageCost{}) {
		opts.Cost = DefaultStorageCost()
	}
	reg := opts.Metrics
	if reg == nil {
		reg = metrics.Default
	}
	return &ADA{
		containers: containers,
		env:        env,
		opts:       opts,
		defaultBE:  backends[len(backends)-1],
		reg:        reg,
		im:         newIngestMetrics(reg),
		vm:         newVerifyMetrics(reg),
	}
}

// Metrics returns the registry this instance instruments against.
func (a *ADA) Metrics() *metrics.Registry { return a.reg }

// Granularity returns the configured categorizer granularity.
func (a *ADA) Granularity() Granularity { return a.opts.Granularity }

// WithSchema returns a copy of the instance using the given user-defined
// categorization schema for subsequent ingests.
func (a *ADA) WithSchema(s *Schema) *ADA {
	b := *a
	b.opts.Schema = s
	return &b
}

// IsTargetFile reports whether ADA traps the file: the prototype targets
// VMD's trajectory and structure files; everything else passes through
// untouched (Section 3.4).
func (a *ADA) IsTargetFile(name string) bool {
	switch strings.ToLower(path.Ext(name)) {
	case ".xtc", ".pdb":
		return true
	}
	return false
}

func (a *ADA) backendFor(tag string) string {
	if a.opts.Schema != nil {
		if be, ok := a.opts.Schema.Placement[tag]; ok {
			return be
		}
	}
	if be, ok := a.opts.Placement[tag]; ok {
		return be
	}
	return a.defaultBE
}

// IngestReport summarizes one ingest.
type IngestReport struct {
	Logical    string
	Frames     int
	NAtoms     int
	Compressed int64            // bytes of compressed input consumed
	Raw        int64            // bytes after decompression
	Subsets    map[string]int64 // tag -> stored subset bytes
	Elapsed    float64          // virtual seconds spent in ingest
}

// Ingest runs the full ADA write path for one dataset: parse the structure
// file, build labels (Algorithm 1), decompress the trajectory frame by
// frame, split every frame into tagged subsets, and dispatch each subset to
// the backend its tag maps to. The structure file, label file, per-subset
// frame indexes, and manifest are stored in the same container.
//
// The write path is a two-stage pipeline. An xtc.AheadReader decodes on one
// goroutine ahead of this one, which alone sequences the frames it yields —
// split, CRC, write, journal checkpoint — so the backends see one ordered op
// stream. Memory bound: the storage node holds the frames of about 3 MiB of
// encoded input decoded ahead (never more than 64, never fewer than two),
// plus the one being decoded and the one being written, refilled once
// written, not allocated anew; on one core a single frame, as in the paper.
//
// Decoding starts first: the first frame is decoded and the decoder
// goroutine is under way before the structure is parsed and the session
// opened, so a failed start (a structure that does not parse, a backend
// error) may have consumed part of traj.
func (a *ADA) Ingest(logical string, pdbData []byte, traj io.Reader) (*IngestReport, error) {
	src := a.decodeAhead(traj)
	defer src.Close()
	return a.ingest(logical, pdbData, src, false, false)
}

// IngestParallel is Ingest — the same pipeline, the same ordered writes, the
// same checkpoints, byte-identical output — with the virtual clock charged
// as the multi-core storage node the pipeline actually uses: the decode
// stage and each subset's categorization overlap, so their wall time is the
// slowest stage rather than their sum. Device I/O time is still charged as
// the writes happen (the backends are shared).
//
// queue is unused. The entry point stays because the end-to-end benchmark's
// parallelProbe (benchmarks/e2e/run.go) times it against Ingest.
func (a *ADA) IngestParallel(logical string, pdbData []byte, traj io.Reader, queue int) (*IngestReport, error) {
	src := a.decodeAhead(traj)
	defer src.Close()
	return a.ingest(logical, pdbData, src, false, true)
}

// ingest is every one-shot entry point: open a session, run src through its
// frame loop, seal. stats turns the in-situ statistics stage on; overlap
// charges the virtual clock as overlapped stages (IngestParallel).
func (a *ADA) ingest(logical string, pdbData []byte, src TrajectoryReader, stats, overlap bool) (*IngestReport, error) {
	span := a.reg.StartSpan("ingest.total")
	defer span.End()
	st, err := a.prepareIngest(logical, pdbData, false)
	if err != nil {
		return nil, err
	}
	if stats {
		st.stats = newStatsStage(len(st.writers))
	}
	if overlap {
		st.charge.overlap(len(st.writers))
	}
	if err := st.ingestFrames("ingest", src); err != nil {
		st.abort()
		return nil, err
	}
	return st.seal()
}

// decodeAhead returns the frame source of an XTC ingest, already decoding:
// every entry point calls it before it opens its session, so the session's
// setup runs while the first frames decode. Callers defer its Close, so no
// exit path leaves a decode goroutine behind.
func (a *ADA) decodeAhead(traj io.Reader) aheadTrajectory {
	return a.decodeAheadRecycling(traj, xtc.NewRecycleList(), nil)
}

// decodeAheadRecycling is decodeAhead decoding into the frames free holds
// and, when sc is not nil, scanning with sc: a live session's batches share
// one list and one Scanner.
func (a *ADA) decodeAheadRecycling(traj io.Reader, free xtc.RecycleList, sc *xtc.Scanner) aheadTrajectory {
	pr := xtc.NewAheadReaderRecycling(traj, free)
	pr.ScanWith(sc)
	pr.Observe = a.im.decodeNS.Observe
	pr.SetMetrics(a.reg)
	pr.Start()
	return aheadTrajectory{pr}
}

// ingestFrames is the one ingest frame loop, the only caller of writeFrame:
// pull the next decoded frame and its exact encoded size from src, charge
// its CPU cost, append it to every subset in tag order (writeFrame, which
// also journals a checkpoint every journalCkptEvery frames), and run the
// statistics stage over the split. It returns at end of stream or on the
// first error — a source error names its frame (op is the message's verb) —
// and the caller decides what follows: abort, detach, or carry on (a live
// session whose subsets are still whole: st.err is nil).
func (st *ingestState) ingestFrames(op string, src TrajectoryReader) error {
	recycler, _ := src.(interface{ Recycle(*xtc.Frame) })
	_, ahead := src.(aheadTrajectory) // the decoder times its own frames
	for {
		t0 := time.Now()
		frame, consumed, err := src.ReadFrame()
		if err == io.EOF {
			return nil
		}
		t1 := time.Now()
		if !ahead {
			st.a.im.decodeNS.Observe(t1.Sub(t0).Nanoseconds())
		}
		if err != nil {
			return fmt.Errorf("core: %s %s frame %d: %w", op, st.logical, st.report.Frames, err)
		}
		st.charge.frame(st, consumed, src.Compressed())
		if err := st.writeFrame(frame, consumed); err != nil {
			return err
		}
		if err := st.stats.add(frame, st.writers); err != nil {
			return err
		}
		st.a.im.writeNS.Observe(time.Since(t1).Nanoseconds())
		if recycler != nil {
			recycler.Recycle(frame) // written out; nothing keeps a decoded frame
		}
	}
}

// crcTee forwards writes to the subset dropping while maintaining the
// per-frame and whole-stream CRC32C. subsetWriter.writeFrame issues exactly
// one Write per frame, so `last` after it is that frame's checksum.
type crcTee struct {
	f       vfs.File
	enabled bool
	last    uint32 // CRC32C of the most recent write (one encoded frame)
	total   uint32 // running CRC32C of the whole stream
}

func (t *crcTee) Write(p []byte) (int, error) {
	n, err := t.f.Write(p)
	if t.enabled && n > 0 {
		t.last = xtc.CRC32C(p[:n])
		t.total = xtc.CRC32CUpdate(t.total, p[:n])
	}
	return n, err
}

// subsetWriter owns one tagged dropping during an ingest. The session's
// structure analysis (or, for Recover, the journal's begin record) fills in
// the identity fields; attach gives it the subset dropping to write.
type subsetWriter struct {
	tag     string
	backend string
	runs    []rangelist.Range // atoms of a full frame this subset takes, by run; nil when Recover reopened it
	natoms  int               // atoms in the subset
	ranges  string            // runs in range-list form, as journaled and published
	file    vfs.File
	tee     *crcTee
	ib      xtc.IndexBuilder
	// base is the byte count already durable in the subset dropping when
	// this writer started — zero on a fresh ingest, the last journaled
	// checkpoint on a resumed one — and written what this writer has
	// appended since.
	base, written int64
	// buf is the frame being written, reused frame to frame: each writer is
	// driven by a single goroutine, so the split and encode allocate nothing.
	buf []byte
}

// attach points the writer at its open subset dropping, which holds (or is
// about to be given) prefix.
func (sw *subsetWriter) attach(f vfs.File, checksums bool, prefix []byte) {
	sw.file, sw.base = f, int64(len(prefix))
	sw.tee = &crcTee{f: f, enabled: checksums}
	if checksums {
		sw.tee.total = xtc.CRC32C(prefix)
	}
}

// writeFrame splits one full frame into this subset and appends it in one
// pass: the raw frame is encoded straight from the full frame's coordinates
// into buf, one kernel call per run of the subset, then goes out as one Write,
// which the tee checksums while the bytes are still in cache.
func (sw *subsetWriter) writeFrame(frame *xtc.Frame) error {
	buf, err := frame.AppendRawSubset(sw.buf[:0], sw.runs)
	if err != nil {
		return err
	}
	sw.buf = buf
	n, err := sw.tee.Write(buf)
	sw.written += int64(n)
	if err != nil {
		return fmt.Errorf("core: subset %s: %w", sw.tag, err)
	}
	sw.indexFrame(int64(len(buf)), sw.natoms, sw.tee.last)
	return nil
}

// indexFrame appends one stored frame to the subset's index.
func (sw *subsetWriter) indexFrame(size int64, natoms int, crc uint32) {
	if sw.tee.enabled {
		sw.ib.AddWithCRC(size, natoms, crc)
	} else {
		sw.ib.Add(size, natoms)
	}
}

// storedBytes is the total size of the subset dropping.
func (sw *subsetWriter) storedBytes() int64 { return sw.base + sw.written }

// ingestState is the one ingest session every writer runs on. It is opened
// (prepareIngest: new container, journal, subsets) or resumed
// (resumeSession: an interrupted ingest cut back to its last checkpoint),
// takes frames through ingestFrames any number of times, and ends exactly
// one way: seal commits the dataset, detach lets go of it and leaves the
// journaled container resumable, abort removes it. One goroutine drives it.
type ingestState struct {
	a               *ADA
	logical         string
	natoms          int // atoms of a full frame
	granularityName string
	// pdbData and labels are the structure analysis seal publishes; a
	// session Recover reopened only to republish its head has neither.
	pdbData []byte
	labels  *LabelSet
	writers []*subsetWriter // in tag order
	report  *IngestReport
	journal *journalWriter
	// charge is the session's hook into the virtual clock (cost.go).
	charge *ingestCharge
	// stats, when set, is the in-situ statistics stage (insitu.go).
	stats *statsStage
	// checksums collects CRC32C per non-subset dropping for the manifest's
	// integrity map.
	checksums map[string]uint32
	// ckptFrames is the frame count at the last journaled checkpoint.
	ckptFrames int
	// headVersion is the version of the last published live head.
	headVersion int64
	// err, once set, is why the session takes no more frames: a write,
	// checkpoint, publish or seal failed, so the subsets may differ in
	// frame count. Only abort, or a resume from the checkpoint, can follow.
	err error
}

// newIngestState returns a session with no writers and no container yet.
func (a *ADA) newIngestState(logical string, natoms int, granularity string) *ingestState {
	return &ingestState{
		a:               a,
		logical:         logical,
		natoms:          natoms,
		granularityName: granularity,
		checksums:       map[string]uint32{},
		report:          &IngestReport{Logical: logical, NAtoms: natoms, Subsets: map[string]int64{}},
	}
}

// analyzeIngest runs the structure analysis half of opening a session, with
// no container side effects (resumeSession reuses it against an existing
// container): the session comes back with its writers identified but not
// attached to any dropping.
func (a *ADA) analyzeIngest(logical string, pdbData []byte) (*ingestState, error) {
	// Data pre-processor, step 1: analyze the structure file.
	charge := a.newIngestCharge()
	charge.cpu("pdbparse", a.opts.Cost.parseTime(int64(len(pdbData))))
	structure, err := pdb.Parse(bytes.NewReader(pdbData))
	if err != nil {
		return nil, fmt.Errorf("core: ingest %s: %w", logical, err)
	}
	if structure.NAtoms() == 0 {
		return nil, fmt.Errorf("core: ingest %s: structure file has no atoms", logical)
	}
	labels := BuildLabels(structure)
	granularity, tagRanges := a.opts.Granularity.String(), labels.TagRanges(a.opts.Granularity)
	if a.opts.Schema != nil {
		granularity, tagRanges = "schema:"+a.opts.Schema.Name, a.opts.Schema.TagRanges(structure)
	}
	st := a.newIngestState(logical, structure.NAtoms(), granularity)
	st.pdbData, st.labels, st.charge = pdbData, labels, charge
	for _, tag := range sortedKeys(tagRanges) {
		ranges := tagRanges[tag]
		st.writers = append(st.writers, &subsetWriter{
			tag:     tag,
			backend: a.backendFor(tag),
			runs:    ranges.Ranges(),
			natoms:  ranges.Count(),
			ranges:  ranges.String(),
		})
	}
	return st, nil
}

// prepareIngest opens a session on a new dataset: structure analysis, then
// the container, the ingest journal, and the subset droppings. live
// marks the journal's begin record as a streaming ingest, which flips the
// recovery classification from roll-back to preserve-the-prefix (see
// live.go).
func (a *ADA) prepareIngest(logical string, pdbData []byte, live bool) (*ingestState, error) {
	st, err := a.analyzeIngest(logical, pdbData)
	if err != nil {
		return nil, err
	}
	// I/O determinator: create the container, start the ingest journal,
	// then create the subset droppings under their final names. Readers
	// gate on the manifest, which only commit puts, so a crash anywhere in
	// here leaves an uncommitted container that Recover can classify.
	if err := a.containers.CreateContainer(logical); err != nil {
		return nil, err
	}
	if st.journal, err = a.openJournal(logical); err != nil {
		return nil, fmt.Errorf("core: ingest %s: %w", logical, err)
	}
	begin := &journalRecord{
		Type:        journalBegin,
		Logical:     logical,
		Granularity: st.granularityName,
		NAtoms:      st.natoms,
		Live:        live,
	}
	for _, sw := range st.writers {
		begin.Tags = append(begin.Tags, journalTag{Tag: sw.tag, Backend: sw.backend, NAtoms: sw.natoms, Ranges: sw.ranges})
	}
	if err := st.journal.append(begin); err != nil {
		st.abort()
		return nil, fmt.Errorf("core: ingest %s: %w", logical, err)
	}
	for _, sw := range st.writers {
		f, err := a.containers.CreateDropping(logical, subsetPrefix+sw.tag, sw.backend)
		if err != nil {
			st.abort()
			return nil, fmt.Errorf("core: ingest %s: %w", logical, err)
		}
		sw.attach(f, !a.opts.DisableChecksums, nil)
	}
	return st, nil
}

// closeWriters closes every attached subset dropping.
func (st *ingestState) closeWriters() {
	for _, sw := range st.writers {
		if sw.file != nil {
			sw.file.Close()
			sw.file = nil
		}
	}
}

// detach lets go of the container without touching what it holds: subsets
// and journal closed, everything on disk as the last write left it, for a
// resume (or Recover) to pick up from the last checkpoint. Safe to call twice.
func (st *ingestState) detach() {
	st.closeWriters()
	if st.journal != nil {
		st.journal.close()
		st.journal = nil
	}
}

// abort tears an interrupted ingest down: detach and roll the container
// back best-effort (a crashed process skips this — that is what the journal
// and Recover are for).
func (st *ingestState) abort() {
	st.detach()
	st.a.containers.RemoveContainer(st.logical)
}

// fail ends the session's writes with err (see ingestState.err) and lets go
// of its handles; the container stays for a resume or an abort.
func (st *ingestState) fail(err error) error {
	st.err = err
	st.detach()
	return err
}

// writeFrame validates one decoded frame, accounts it, and appends it to
// every subset. Only ingestFrames calls it.
func (st *ingestState) writeFrame(frame *xtc.Frame, compressedBytes int64) error {
	if frame.NAtoms() != st.natoms {
		return fmt.Errorf("core: ingest %s frame %d has %d atoms, structure has %d",
			st.logical, st.report.Frames, frame.NAtoms(), st.natoms)
	}
	st.report.Compressed += compressedBytes
	st.report.Raw += xtc.RawFrameSize(frame.NAtoms())
	for _, sw := range st.writers {
		if err := sw.writeFrame(frame); err != nil {
			return st.fail(fmt.Errorf("core: ingest %s frame %d: %w", st.logical, st.report.Frames, err))
		}
	}
	st.report.Frames++
	st.a.im.progressFrames.Set(int64(st.report.Frames))
	if st.report.Frames%journalCkptEvery == 0 {
		if err := st.checkpoint(); err != nil {
			return fmt.Errorf("core: ingest %s: %w", st.logical, err)
		}
	}
	return nil
}

// checkpoint journals the current durable high-water mark: frame count and
// per-subset byte length plus running CRC32C. ResumeIngest cuts the subsets
// back to the latest checkpoint and continues from there. The cut is
// consistent because one goroutine writes every subset: when it is taken
// each subset dropping holds exactly report.Frames frames. With no
// frame written since the last checkpoint it journals nothing — a live batch
// that ends on the frame loop's periodic checkpoint, an empty dataset.
func (st *ingestState) checkpoint() error {
	if st.ckptFrames == st.report.Frames {
		return nil
	}
	rec := &journalRecord{
		Type:       journalCkpt,
		Frames:     st.report.Frames,
		Compressed: st.report.Compressed,
		Raw:        st.report.Raw,
		Subsets:    map[string]journalSubset{},
	}
	for _, sw := range st.writers {
		rec.Subsets[sw.tag] = journalSubset{Bytes: sw.storedBytes(), CRC: sw.tee.total}
	}
	if err := st.journal.append(rec); err != nil {
		return st.fail(err)
	}
	st.ckptFrames = st.report.Frames
	return nil
}

// put writes one non-subset dropping under its final name
// (plfs.PutDropping) and folds its CRC32C into the manifest's integrity map.
func (st *ingestState) put(name, backend string, data []byte) error {
	if err := st.a.containers.PutDropping(st.logical, name, backend, data); err != nil {
		return fmt.Errorf("core: write %s: %w", name, err)
	}
	if !st.a.opts.DisableChecksums {
		st.checksums[name] = xtc.CRC32C(data)
	}
	return nil
}

// seal ends the session with the dataset committed: close the subsets,
// settle the virtual clock, then finish. A failure leaves the session failed
// and the container to Recover.
func (st *ingestState) seal() (*IngestReport, error) {
	st.closeWriters()
	st.charge.settle()
	if err := st.finish(); err != nil {
		return nil, st.fail(err)
	}
	st.report.Elapsed = st.charge.elapsed()
	return st.report, nil
}

// finish puts the metadata droppings (indexes, structure, labels, any
// in-situ statistics) and then commits the manifest built over them.
func (st *ingestState) finish() error {
	a := st.a
	// Persist each subset's frame index next to its dropping, enabling
	// random-access playback without a scan.
	for _, sw := range st.writers {
		if err := st.put(indexPrefix+sw.tag, sw.backend,
			sw.ib.Index().Marshal()); err != nil {
			return err
		}
	}

	// Persist structure, labels, and any in-situ statistics.
	if err := st.put(droppingPDB, a.backendFor(TagProtein), st.pdbData); err != nil {
		return err
	}
	labelBytes, err := st.labels.Marshal()
	if err != nil {
		return err
	}
	if err := st.put(droppingLabels, a.backendFor(TagProtein), labelBytes); err != nil {
		return err
	}
	if err := st.stats.put(st); err != nil {
		return err
	}

	manifest := &Manifest{
		Logical:     st.logical,
		Granularity: st.granularityName,
		NAtoms:      st.natoms,
		Frames:      st.report.Frames,
		Compressed:  st.report.Compressed,
		Raw:         st.report.Raw,
		Subsets:     map[string]Subset{},
		Placement:   map[string]string{},
		Checksums:   st.checksums, // empty with checksums off, and then omitted
	}
	for _, sw := range st.writers {
		st.report.Subsets[sw.tag] = sw.storedBytes()
		manifest.Subsets[sw.tag] = Subset{
			Tag:     sw.tag,
			NAtoms:  sw.natoms,
			Bytes:   sw.storedBytes(),
			Backend: sw.backend,
			Ranges:  sw.ranges,
			CRC32C:  sw.tee.total, // zero with checksums off
		}
		manifest.Placement[sw.tag] = sw.backend
	}
	if err := st.commit(manifest); err != nil {
		return err
	}
	a.im.ingests.Inc()
	a.im.frames.Add(int64(st.report.Frames))
	a.im.bytesCompressed.Add(st.report.Compressed)
	a.im.bytesRaw.Add(st.report.Raw)
	for _, n := range st.report.Subsets {
		a.im.bytesWritten.Add(n)
	}
	return nil
}

// commit publishes the dataset: the journal is closed, the manifest put —
// the one commit point, which readers gate on — and the journal removed. A
// crash before the put leaves an uncommitted container, one after it a
// committed container whose leftover journal Recover sweeps.
func (st *ingestState) commit(m *Manifest) error {
	err := st.journal.close()
	st.journal = nil
	var data []byte
	if err == nil {
		data, err = m.marshal()
	}
	if err == nil {
		err = st.a.containers.PutDropping(st.logical, droppingManifest, st.a.backendFor(TagProtein), data)
	}
	if err == nil {
		err = st.a.containers.RemoveDropping(st.logical, droppingJournal)
	}
	if err != nil {
		return fmt.Errorf("core: commit %s: %w", st.logical, err)
	}
	return nil
}

func (a *ADA) writeDropping(logical, name, backend string, data []byte) error {
	f, err := a.containers.CreateDropping(logical, name, backend)
	if err != nil {
		return fmt.Errorf("core: write %s: %w", name, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("core: write %s: %w", name, err)
	}
	return f.Close()
}

// Datasets lists every ingested dataset's logical name.
func (a *ADA) Datasets() ([]string, error) {
	return a.containers.ListContainers()
}

// Remove deletes an ingested dataset: every subset dropping, index,
// structure, label file, and manifest.
func (a *ADA) Remove(logical string) error {
	return a.containers.RemoveContainer(logical)
}

// Manifest loads a dataset's manifest (the indexer's query path: tags are
// resolved to dataset paths through it).
func (a *ADA) Manifest(logical string) (*Manifest, error) {
	data, err := a.readDropping(logical, droppingManifest)
	if err != nil {
		return nil, err
	}
	return unmarshalManifest(data)
}

// Labels loads a dataset's label set.
func (a *ADA) Labels(logical string) (*LabelSet, error) {
	data, err := a.readDropping(logical, droppingLabels)
	if err != nil {
		return nil, err
	}
	return UnmarshalLabels(data)
}

// StructureBytes returns the stored .pdb file.
func (a *ADA) StructureBytes(logical string) ([]byte, error) {
	return a.readDropping(logical, droppingPDB)
}

func (a *ADA) readDropping(logical, name string) ([]byte, error) {
	f, err := a.containers.OpenDropping(logical, name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, f.Size())
	if _, err := io.ReadFull(f, buf); err != nil && err != io.EOF {
		return nil, fmt.Errorf("core: read %s/%s: %w", logical, name, err)
	}
	return buf, nil
}
