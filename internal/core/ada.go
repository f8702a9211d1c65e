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
	// stagingPrefix marks droppings an in-flight ingest has not yet
	// published; commit renames them to their final names, manifest last.
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
	// DecodeWorkers bounds the ingest decode-ahead pool (<=0 selects
	// xtc.DecodeAheadWorkers: a worker per core but the sequencer's, at
	// least one). On one core it decodes in line on the ingest goroutine.
	DecodeWorkers int
	// DecodeBatchBytes overrides the encoded bytes handed to one decode
	// worker per work item (<=0 selects ingestBatchBytes, 1 MiB). Smaller
	// batches hold fewer decoded frames in flight; larger ones decode
	// further ahead and amortize per-item overhead.
	DecodeBatchBytes int
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
	// access, when set, observes every read-path dropping access (the tier
	// subsystem's heat signal). See SetAccessFunc.
	access AccessFunc
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
	// Parallel describes the decode worker pool; nil for serial Ingest.
	Parallel *ParallelIngestReport
}

// ParallelIngestReport describes how IngestParallel's decode pool behaved.
type ParallelIngestReport struct {
	// DecodeWorkers is the size of the decode pool.
	DecodeWorkers int
	// WorkerDecodeSec is the virtual decompression time charged to each
	// pool worker (frames assigned round-robin); the stage's wall-time
	// contribution is the maximum entry, not the sum. Nil without a clock.
	WorkerDecodeSec []float64
	// WorkerBusyNS is each worker's real wall-clock decode time.
	WorkerBusyNS []int64
	// WorkerUtilization is each worker's real busy time relative to the
	// busiest worker (1.0 = as busy as the bottleneck worker).
	WorkerUtilization []float64
}

// Ingest runs the full ADA write path for one dataset: parse the structure
// file, build labels (Algorithm 1), decompress the trajectory frame by
// frame, split every frame into tagged subsets, and dispatch each subset to
// the backend its tag maps to. The structure file, label file, per-subset
// frame indexes, and manifest are stored in the same container.
//
// The write path is a two-stage pipeline. An xtc.ParallelReader decodes
// ahead on Options.DecodeWorkers goroutines while this goroutine alone
// sequences the frames it yields — split, CRC, write, journal checkpoint —
// so the backends see one ordered op stream whatever the pool size. Memory
// bound: the storage node holds at most 2*DecodeWorkers+2 decode batches of
// decoded frames, each up to 64 frames and about DecodeBatchBytes of encoded
// input (a batch ends with the frame that crosses that size), refilled once
// written, not allocated anew; on one core a single frame, as in the paper.
func (a *ADA) Ingest(logical string, pdbData []byte, traj io.Reader) (*IngestReport, error) {
	src := a.decodeAhead(traj)
	defer src.Close()
	return a.ingest(logical, pdbData, src, false, nil)
}

// ingest is every one-shot entry point: open a session, run src through its
// frame loop, seal. stats turns the in-situ statistics stage on; a non-nil
// pool (src's own) charges the virtual clock as overlapped stages and adds
// the pool's telemetry to the report.
func (a *ADA) ingest(logical string, pdbData []byte, src TrajectoryReader, stats bool, pool *xtc.ParallelReader) (*IngestReport, error) {
	span := a.reg.StartSpan("ingest.total")
	defer span.End()
	st, err := a.prepareIngest(logical, pdbData, false)
	if err != nil {
		return nil, err
	}
	if stats {
		st.stats = make(statsStage, len(st.writers))
	}
	if st.pool = pool; pool != nil {
		st.charge.overlap(pool.Workers(), len(st.writers))
	}
	if err := st.ingestFrames("ingest", src); err != nil {
		st.abort()
		return nil, err
	}
	return st.seal()
}

// ingestBatchBytes is an ingest's decode work item when Options sets none,
// four of the reader's: the frame loop runs on what is decoded ahead while a
// decoder is held up, and six 200 kB frames (two a batch) often ran out.
const ingestBatchBytes = 4 * xtc.DefaultBatchBytes

// decodeAhead returns the frame source of an XTC ingest. Callers defer its
// Close, so no exit path leaves a decode goroutine behind.
func (a *ADA) decodeAhead(traj io.Reader) aheadTrajectory {
	pr := xtc.NewParallelReader(traj, xtc.DecodeAheadWorkers(a.opts.DecodeWorkers))
	pr.Observe = a.im.decodeNS.Observe
	pr.BatchBytes = a.opts.DecodeBatchBytes
	if pr.BatchBytes <= 0 {
		pr.BatchBytes = ingestBatchBytes
	}
	pr.SetMetrics(a.reg)
	return aheadTrajectory{pr}
}

// ingestFrames is the one ingest frame loop, the only caller of writeFrame:
// pull the next decoded frame and its exact encoded size from src, charge
// its CPU cost, append it to every subset in tag order (writeFrame, which
// also journals a checkpoint every journalCkptEvery frames), and run the
// statistics stage over the split. It returns at end of stream or on the
// first error — a source error names its frame (op is the message's verb) —
// and the caller decides what follows: abort, detach, or carry on (a live
// session whose staged subsets are still whole: st.err is nil).
func (st *ingestState) ingestFrames(op string, src TrajectoryReader) error {
	recycler, _ := src.(interface{ Recycle(*xtc.Frame) })
	_, ahead := src.(aheadTrajectory) // a decode pool times its own frames
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
		if err := st.stats.add(st.writers); err != nil {
			return err
		}
		st.a.im.writeNS.Observe(time.Since(t1).Nanoseconds())
		if recycler != nil {
			recycler.Recycle(frame) // written out; nothing keeps a decoded frame
		}
	}
}

// crcTee forwards writes to the staged dropping while maintaining the
// per-frame and whole-stream CRC32C. xtc.Writer issues exactly one Write
// per frame, so `last` after a WriteFrame is that frame's checksum.
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
// the identity fields; attach gives it the staged dropping to write.
type subsetWriter struct {
	tag     string
	backend string
	indices []int  // atoms of a full frame this subset takes; nil when Recover reopened it
	natoms  int    // atoms in the subset
	ranges  string // indices in range-list form, as journaled and published
	file    vfs.File
	tee     *crcTee
	w       *xtc.Writer
	ib      xtc.IndexBuilder
	// base is the byte count already durable in the staged dropping when
	// this writer started — zero on a fresh ingest, the last journaled
	// checkpoint on a resumed one.
	base int64
	// sub is the split scratch frame: each writer is driven by a single
	// goroutine, so reusing it makes the per-frame split allocation-free.
	sub xtc.Frame
}

// attach points the writer at its open staged dropping, which holds (or is
// about to be given) prefix.
func (sw *subsetWriter) attach(f vfs.File, checksums bool, prefix []byte) {
	sw.file, sw.base = f, int64(len(prefix))
	sw.tee = &crcTee{f: f, enabled: checksums}
	if checksums {
		sw.tee.total = xtc.CRC32C(prefix)
	}
	sw.w = xtc.NewRawWriter(sw.tee)
}

// writeFrame splits one full frame into this subset and appends it.
func (sw *subsetWriter) writeFrame(frame *xtc.Frame) error {
	if err := frame.SubsetInto(sw.indices, &sw.sub); err != nil {
		return err
	}
	before := sw.w.BytesWritten()
	if err := sw.w.WriteFrame(&sw.sub); err != nil {
		return fmt.Errorf("core: subset %s: %w", sw.tag, err)
	}
	sw.indexFrame(sw.w.BytesWritten()-before, sw.sub.NAtoms(), sw.tee.last)
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

// storedBytes is the total size of the staged dropping.
func (sw *subsetWriter) storedBytes() int64 { return sw.base + sw.w.BytesWritten() }

// ingestState is the one ingest session every writer runs on. It is opened
// (prepareIngest: new container, journal, staged subsets) or resumed
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
	stats statsStage
	// pool, when set, is the decode pool seal reports on (IngestParallel).
	pool *xtc.ParallelReader
	// staged lists the final dropping names (in publish order) whose
	// staged copies commit renames into place; the manifest is not among
	// them — its rename is the commit point and always happens last.
	staged []string
	// checksums collects CRC32C per staged non-subset dropping for the
	// manifest's integrity map.
	checksums map[string]uint32
	// ckptFrames is the frame count at the last journaled checkpoint.
	ckptFrames int
	// headVersion is the version of the last published live head.
	headVersion int64
	// err, once set, is why the session takes no more frames: a write,
	// checkpoint, publish or seal failed, so the staged subsets may differ in
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

// addWriter adds the next subset, in tag order.
func (st *ingestState) addWriter(sw *subsetWriter) {
	st.writers = append(st.writers, sw)
	st.staged = append(st.staged, subsetPrefix+sw.tag)
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
		st.addWriter(&subsetWriter{
			tag:     tag,
			backend: a.backendFor(tag),
			indices: ranges.Indices(),
			natoms:  ranges.Count(),
			ranges:  ranges.String(),
		})
	}
	return st, nil
}

// prepareIngest opens a session on a new dataset: structure analysis, then
// the container, the ingest journal, and the staged subset droppings. live
// marks the journal's begin record as a streaming ingest, which flips the
// recovery classification from roll-back to preserve-the-prefix (see
// live.go).
func (a *ADA) prepareIngest(logical string, pdbData []byte, live bool) (*ingestState, error) {
	st, err := a.analyzeIngest(logical, pdbData)
	if err != nil {
		return nil, err
	}
	// I/O determinator: create the container, start the ingest journal,
	// then create the subset droppings under staging names. Nothing under
	// a final name exists until commit, so a crash anywhere in here leaves
	// only journaled staging state that Recover can classify.
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
		f, err := a.containers.CreateDropping(logical, stagingPrefix+subsetPrefix+sw.tag, sw.backend)
		if err != nil {
			st.abort()
			return nil, fmt.Errorf("core: ingest %s: %w", logical, err)
		}
		sw.attach(f, !a.opts.DisableChecksums, nil)
	}
	return st, nil
}

// closeWriters closes every attached staged subset dropping.
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
// per-subset byte length plus running CRC32C. ResumeIngest truncates the
// staged droppings back to the latest checkpoint and continues from there.
// The cut is consistent because one goroutine writes every subset: when it
// is taken each staged dropping holds exactly report.Frames frames. With no
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

// writeStaged writes one non-subset dropping under its staging name,
// records it for the commit rename pass, and folds its CRC32C into the
// manifest's integrity map.
func (st *ingestState) writeStaged(name, backend string, data []byte) error {
	if err := st.a.writeDropping(st.logical, stagingPrefix+name, backend, data); err != nil {
		return err
	}
	st.staged = append(st.staged, name)
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
	decodeSec := st.charge.settle()
	if st.pool != nil {
		st.report.Parallel = poolReport(st.pool, decodeSec)
	}
	if err := st.finish(); err != nil {
		return nil, st.fail(err)
	}
	st.report.Elapsed = st.charge.elapsed()
	return st.report, nil
}

// finish stages the metadata droppings (indexes, structure, labels, any
// in-situ statistics), then commits: journal commit
// record, rename every staged dropping to its final name, publish the
// manifest last (its rename is the atomic commit point), and retire the
// journal.
func (st *ingestState) finish() error {
	a := st.a
	// Persist each subset's frame index next to its dropping, enabling
	// random-access playback without a scan.
	for _, sw := range st.writers {
		if err := st.writeStaged(indexPrefix+sw.tag, sw.backend,
			sw.ib.Index().Marshal()); err != nil {
			return err
		}
	}

	// Persist structure, labels, and any in-situ statistics.
	if err := st.writeStaged(droppingPDB, a.backendFor(TagProtein), st.pdbData); err != nil {
		return err
	}
	labelBytes, err := st.labels.Marshal()
	if err != nil {
		return err
	}
	if err := st.writeStaged(droppingLabels, a.backendFor(TagProtein), labelBytes); err != nil {
		return err
	}
	if err := st.stats.stage(st); err != nil {
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

// commit publishes the dataset. The sequence is crash-ordered: the commit
// record makes the ingest replayable before any final name exists, the
// per-dropping renames are each atomic, and the manifest rename — the one
// readers gate on — happens strictly last. Whatever op a crash lands on,
// the container is either invisible to readers or fully consistent.
func (st *ingestState) commit(manifest *Manifest) error {
	a := st.a
	rec := &journalRecord{Type: journalCommit, Staged: st.staged, Manifest: manifest}
	if err := st.journal.append(rec); err != nil {
		return fmt.Errorf("core: commit %s: %w", st.logical, err)
	}
	err := st.journal.close()
	st.journal = nil
	if err != nil {
		return fmt.Errorf("core: commit %s: %w", st.logical, err)
	}
	for _, name := range st.staged {
		if err := a.containers.RenameDropping(st.logical, stagingPrefix+name, name); err != nil {
			return fmt.Errorf("core: commit %s: %w", st.logical, err)
		}
	}
	return a.publishManifest(st.logical, manifest)
}

// publishManifest is the tail of a commit, first time or replayed: the
// manifest lands under its final name by rename — the commit point — and the
// journal, from then on only bookkeeping, is retired.
func (a *ADA) publishManifest(logical string, m *Manifest) error {
	data, err := m.marshal()
	if err != nil {
		return err
	}
	if err := a.republishDropping(logical, droppingManifest, a.backendFor(TagProtein), data); err != nil {
		return fmt.Errorf("core: commit %s: %w", logical, err)
	}
	if err := a.containers.RemoveDropping(logical, droppingJournal); err != nil {
		return fmt.Errorf("core: commit %s: %w", logical, err)
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
