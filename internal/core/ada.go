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
	// stagingPrefix marks droppings an in-flight ingest has not yet
	// published; commit renames them to their final names, manifest last.
	stagingPrefix = "staging."
	// replicaPrefix marks the failover copies of off-default subsets.
	replicaPrefix = "replica."
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
	// ReplicateActive mirrors every subset placed off the default (bulk)
	// backend — the active "p" subsets under the paper's placement — onto
	// it at ingest, so a corrupted or down primary fails over to a
	// byte-identical copy instead of erroring.
	ReplicateActive bool
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
	fm         failoverMetrics
	// access, when set, observes every read-path dropping access (the tier
	// subsystem's heat signal). See SetAccessFunc.
	access AccessFunc
}

// ingestMetrics are the real-time (wall-clock) handles for the ingest
// pipeline's stages; the sim.Env charges model virtual hardware, these
// measure the Go process itself.
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
		fm:         newFailoverMetrics(reg),
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

func (a *ADA) chargeCPU(bucket string, sec float64) {
	if a.env != nil && sec > 0 {
		a.env.Charge("storage.cpu."+bucket, sec)
	}
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
	// contribution is the maximum entry, not the sum.
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
	return a.ingest(logical, pdbData, src, nil)
}

// ingest is every one-shot entry point: one prepare, one frame loop over
// src, one commit. A nil par charges the virtual clock serially per frame;
// otherwise par accumulates the stages and charges them as concurrent.
func (a *ADA) ingest(logical string, pdbData []byte, src TrajectoryReader, par *parallelCharge) (*IngestReport, error) {
	var start float64
	if a.env != nil {
		start = a.env.Clock.Now()
	}
	span := a.reg.StartSpan("ingest.total")
	defer span.End()
	st, err := a.prepareIngest(logical, pdbData, false)
	if err != nil {
		return nil, err
	}
	charge := st.chargeSerial(src.Compressed())
	if par != nil {
		charge = par.begin(st)
	}
	if err := st.ingestFrames("ingest", src, charge); err != nil {
		st.abort()
		return nil, err
	}
	st.closeAll()
	if par != nil {
		par.finish(st)
	}
	return st.finish(start)
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

// chargeSerial charges each frame's decompression (when the source pays any)
// and categorization to the virtual clock one after the other, on the ingest
// goroutine: the paper's single-core storage node.
func (st *ingestState) chargeSerial(compressed bool) func(consumed int64) {
	a := st.a
	return func(consumed int64) {
		if compressed {
			a.chargeCPU("decompress", a.opts.Cost.decompressTime(consumed))
		}
		a.chargeCPU("categorize", a.opts.Cost.categorizeTime(xtc.RawFrameSize(st.structure.NAtoms())))
	}
}

// ingestFrames is the one ingest frame loop: pull the next decoded frame and
// its exact encoded size from src, charge its CPU cost, and append it to
// every subset in tag order (writeFrame, which also journals a checkpoint
// every journalCkptEvery frames). It returns at end of stream or on the
// first error, which names its frame (op is the message's verb); the caller
// decides whether to abort the container or leave it resumable.
func (st *ingestState) ingestFrames(op string, src TrajectoryReader, charge func(consumed int64)) error {
	recycler, _ := src.(interface{ Recycle(*xtc.Frame) })
	for {
		frame, consumed, err := src.ReadFrame()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("core: %s %s frame %d: %w", op, st.logical, st.report.Frames, err)
		}
		charge(consumed)
		t0 := time.Now()
		if err := st.writeFrame(frame, consumed); err != nil {
			return err
		}
		st.a.im.writeNS.Observe(time.Since(t0).Nanoseconds())
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

// subsetWriter owns one tagged dropping during an ingest.
type subsetWriter struct {
	tag     string
	backend string
	file    vfs.File
	tee     *crcTee
	w       *xtc.Writer
	indices []int
	natoms  int
	ib      xtc.IndexBuilder
	// base is the byte count already durable in the staged dropping when
	// this writer started — zero on a fresh ingest, the last journaled
	// checkpoint on a resumed one.
	base int64
	// sub is the split scratch frame: each writer is driven by a single
	// goroutine, so reusing it makes the per-frame split allocation-free.
	sub xtc.Frame
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
	if sw.tee.enabled {
		sw.ib.AddWithCRC(sw.w.BytesWritten()-before, sw.sub.NAtoms(), sw.tee.last)
	} else {
		sw.ib.Add(sw.w.BytesWritten()-before, sw.sub.NAtoms())
	}
	return nil
}

// storedBytes is the total size of the staged dropping.
func (sw *subsetWriter) storedBytes() int64 { return sw.base + sw.w.BytesWritten() }

// ingestState carries one ingest's shared context between the prepare,
// frame-loop, and finish phases.
type ingestState struct {
	a               *ADA
	logical         string
	pdbData         []byte
	structure       *pdb.Structure
	labels          *LabelSet
	tagRanges       map[string]*rangelist.List
	granularityName string
	writers         []*subsetWriter
	report          *IngestReport
	journal         *journalWriter
	// staged lists the final dropping names (in publish order) whose
	// staged copies commit renames into place; the manifest is not among
	// them — its rename is the commit point and always happens last.
	staged []string
	// checksums collects CRC32C per staged non-subset dropping for the
	// manifest's integrity map.
	checksums map[string]uint32
	// extra holds droppings a variant ingest (in-situ stats) wants
	// published atomically with the dataset.
	extra []extraDropping
	// ckptFrames is the frame count at the last journaled checkpoint; live
	// ingest uses it to avoid writing a duplicate checkpoint per batch when
	// the frame loop's periodic one already landed on the batch boundary.
	ckptFrames int
}

// extraDropping is a variant-specific payload staged during finish.
type extraDropping struct {
	name    string
	backend string
	data    []byte
}

// addExtra schedules an additional dropping to be published with the
// dataset's atomic commit (used by the in-situ statistics path).
func (st *ingestState) addExtra(name, backend string, data []byte) {
	st.extra = append(st.extra, extraDropping{name: name, backend: backend, data: data})
}

// analyzeIngest runs the structure analysis half of prepareIngest, with no
// container side effects (ResumeIngest reuses it against an existing
// container).
func (a *ADA) analyzeIngest(logical string, pdbData []byte) (*ingestState, error) {
	// Data pre-processor, step 1: analyze the structure file.
	a.chargeCPU("pdbparse", a.opts.Cost.parseTime(int64(len(pdbData))))
	structure, err := pdb.Parse(bytes.NewReader(pdbData))
	if err != nil {
		return nil, fmt.Errorf("core: ingest %s: %w", logical, err)
	}
	if structure.NAtoms() == 0 {
		return nil, fmt.Errorf("core: ingest %s: structure file has no atoms", logical)
	}
	st := &ingestState{
		a:         a,
		logical:   logical,
		pdbData:   pdbData,
		structure: structure,
		labels:    BuildLabels(structure),
		checksums: map[string]uint32{},
		report: &IngestReport{
			Logical: logical,
			NAtoms:  structure.NAtoms(),
			Subsets: map[string]int64{},
		},
	}
	st.granularityName = a.opts.Granularity.String()
	if a.opts.Schema != nil {
		st.tagRanges = a.opts.Schema.TagRanges(structure)
		st.granularityName = "schema:" + a.opts.Schema.Name
	} else {
		st.tagRanges = st.labels.TagRanges(a.opts.Granularity)
	}
	return st, nil
}

// prepareIngest runs the structure analysis and creates the container, the
// ingest journal, and the staged subset droppings. live marks the journal's
// begin record as a streaming ingest, which flips the recovery
// classification from roll-back to preserve-the-prefix (see live.go).
func (a *ADA) prepareIngest(logical string, pdbData []byte, live bool) (*ingestState, error) {
	st, err := a.analyzeIngest(logical, pdbData)
	if err != nil {
		return nil, err
	}
	structure := st.structure

	// I/O determinator: create the container, start the ingest journal,
	// then create the subset droppings under staging names. Nothing under
	// a final name exists until commit, so a crash anywhere in here leaves
	// only journaled staging state that Recover can classify.
	if err := a.containers.CreateContainer(logical); err != nil {
		return nil, err
	}
	j, err := a.openJournal(logical)
	if err != nil {
		return nil, fmt.Errorf("core: ingest %s: %w", logical, err)
	}
	st.journal = j
	begin := &journalRecord{
		Type:        journalBegin,
		Logical:     logical,
		Granularity: st.granularityName,
		NAtoms:      structure.NAtoms(),
		Live:        live,
	}
	for _, tag := range sortedTags(st.tagRanges) {
		begin.Tags = append(begin.Tags, journalTag{
			Tag:     tag,
			Backend: a.backendFor(tag),
			NAtoms:  st.tagRanges[tag].Count(),
			Ranges:  st.tagRanges[tag].String(),
		})
	}
	if err := j.append(begin); err != nil {
		st.abort()
		return nil, fmt.Errorf("core: ingest %s: %w", logical, err)
	}
	for _, tag := range sortedTags(st.tagRanges) {
		ranges := st.tagRanges[tag]
		be := a.backendFor(tag)
		f, err := a.containers.CreateDropping(logical, stagingPrefix+subsetPrefix+tag, be)
		if err != nil {
			st.abort()
			return nil, fmt.Errorf("core: ingest %s: %w", logical, err)
		}
		tee := &crcTee{f: f, enabled: !a.opts.DisableChecksums}
		st.writers = append(st.writers, &subsetWriter{
			tag:     tag,
			backend: be,
			file:    f,
			tee:     tee,
			w:       xtc.NewRawWriter(tee),
			indices: ranges.Indices(),
			natoms:  ranges.Count(),
		})
		st.staged = append(st.staged, subsetPrefix+tag)
	}
	return st, nil
}

func (st *ingestState) closeAll() {
	for _, sw := range st.writers {
		sw.file.Close()
	}
}

// abort tears an interrupted ingest down: close everything and roll the
// container back best-effort (a crashed process skips this — that is what
// the journal and Recover are for).
func (st *ingestState) abort() {
	st.closeAll()
	if st.journal != nil {
		st.journal.close()
	}
	st.a.containers.RemoveContainer(st.logical)
}

// writeFrame validates one decoded frame, accounts it, and appends it to
// every subset.
func (st *ingestState) writeFrame(frame *xtc.Frame, compressedBytes int64) error {
	if frame.NAtoms() != st.structure.NAtoms() {
		return fmt.Errorf("core: ingest %s frame %d has %d atoms, structure has %d",
			st.logical, st.report.Frames, frame.NAtoms(), st.structure.NAtoms())
	}
	st.report.Compressed += compressedBytes
	st.report.Raw += xtc.RawFrameSize(frame.NAtoms())
	for _, sw := range st.writers {
		if err := sw.writeFrame(frame); err != nil {
			return fmt.Errorf("core: ingest %s frame %d: %w", st.logical, st.report.Frames, err)
		}
	}
	st.report.Frames++
	st.a.im.progressFrames.Set(int64(st.report.Frames))
	if st.journal != nil && st.report.Frames%journalCkptEvery == 0 {
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
// is taken each staged dropping holds exactly report.Frames frames.
func (st *ingestState) checkpoint() error {
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
		return err
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

// finish stages the metadata droppings (indexes, structure, labels, any
// extras, and replica copies), then commits: journal commit record, rename
// every staged dropping to its final name, publish the manifest last (its
// rename is the atomic commit point), and retire the journal.
func (st *ingestState) finish(start float64) (*IngestReport, error) {
	a := st.a
	// Persist each subset's frame index next to its dropping, enabling
	// random-access playback without a scan.
	for _, sw := range st.writers {
		if err := st.writeStaged(indexPrefix+sw.tag, sw.backend,
			sw.ib.Index().Marshal()); err != nil {
			return nil, err
		}
	}

	// Persist structure, labels, and any variant extras.
	if err := st.writeStaged(droppingPDB, a.backendFor(TagProtein), st.pdbData); err != nil {
		return nil, err
	}
	labelBytes, err := st.labels.Marshal()
	if err != nil {
		return nil, err
	}
	if err := st.writeStaged(droppingLabels, a.backendFor(TagProtein), labelBytes); err != nil {
		return nil, err
	}
	for _, ex := range st.extra {
		if err := st.writeStaged(ex.name, ex.backend, ex.data); err != nil {
			return nil, err
		}
	}

	manifest := &Manifest{
		Logical:     st.logical,
		Granularity: st.granularityName,
		NAtoms:      st.structure.NAtoms(),
		Frames:      st.report.Frames,
		Compressed:  st.report.Compressed,
		Raw:         st.report.Raw,
		Subsets:     map[string]Subset{},
		Placement:   map[string]string{},
	}
	for _, sw := range st.writers {
		st.report.Subsets[sw.tag] = sw.storedBytes()
		sub := Subset{
			Tag:     sw.tag,
			NAtoms:  sw.natoms,
			Bytes:   sw.storedBytes(),
			Backend: sw.backend,
			Ranges:  st.tagRanges[sw.tag].String(),
		}
		if sw.tee.enabled {
			sub.CRC32C = sw.tee.total
		}
		// Replicate off-default subsets onto the bulk backend so reads
		// survive a corrupted or down primary.
		if a.opts.ReplicateActive && sw.backend != a.defaultBE {
			data, err := a.readDropping(st.logical, stagingPrefix+subsetPrefix+sw.tag)
			if err != nil {
				return nil, fmt.Errorf("core: replicate %s: %w", sw.tag, err)
			}
			if err := st.writeStaged(replicaPrefix+subsetPrefix+sw.tag, a.defaultBE, data); err != nil {
				return nil, err
			}
			if err := st.writeStaged(replicaPrefix+indexPrefix+sw.tag, a.defaultBE,
				sw.ib.Index().Marshal()); err != nil {
				return nil, err
			}
			sub.Replica = a.defaultBE
		}
		manifest.Subsets[sw.tag] = sub
		manifest.Placement[sw.tag] = sw.backend
	}
	if len(st.checksums) > 0 {
		manifest.Checksums = st.checksums
	}
	if err := st.commit(manifest); err != nil {
		return nil, err
	}
	if a.env != nil {
		st.report.Elapsed = a.env.Clock.Now() - start
	}
	a.im.ingests.Inc()
	a.im.frames.Add(int64(st.report.Frames))
	a.im.bytesCompressed.Add(st.report.Compressed)
	a.im.bytesRaw.Add(st.report.Raw)
	for _, n := range st.report.Subsets {
		a.im.bytesWritten.Add(n)
	}
	return st.report, nil
}

// commit publishes the dataset. The sequence is crash-ordered: the commit
// record makes the ingest replayable before any final name exists, the
// per-dropping renames are each atomic, and the manifest rename — the one
// readers gate on — happens strictly last. Whatever op a crash lands on,
// the container is either invisible to readers or fully consistent.
func (st *ingestState) commit(manifest *Manifest) error {
	a := st.a
	if st.journal != nil {
		rec := &journalRecord{Type: journalCommit, Staged: st.staged, Manifest: manifest}
		if err := st.journal.append(rec); err != nil {
			return fmt.Errorf("core: commit %s: %w", st.logical, err)
		}
		if err := st.journal.close(); err != nil {
			return fmt.Errorf("core: commit %s: %w", st.logical, err)
		}
	}
	for _, name := range st.staged {
		if err := a.containers.RenameDropping(st.logical, stagingPrefix+name, name); err != nil {
			return fmt.Errorf("core: commit %s: %w", st.logical, err)
		}
	}
	manifestBytes, err := manifest.marshal()
	if err != nil {
		return err
	}
	if err := a.writeDropping(st.logical, stagingPrefix+droppingManifest,
		a.backendFor(TagProtein), manifestBytes); err != nil {
		return err
	}
	if err := a.containers.RenameDropping(st.logical, stagingPrefix+droppingManifest, droppingManifest); err != nil {
		return fmt.Errorf("core: commit %s: %w", st.logical, err)
	}
	// The dataset is live; the journal is now only bookkeeping.
	if err := a.containers.RemoveDropping(st.logical, droppingJournal); err != nil {
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

func sortedTags(m map[string]*rangelist.List) []string {
	tags := make([]string, 0, len(m))
	for t := range m {
		tags = append(tags, t)
	}
	// Small fixed set; insertion sort keeps this dependency-free.
	for i := 1; i < len(tags); i++ {
		for j := i; j > 0 && tags[j] < tags[j-1]; j-- {
			tags[j], tags[j-1] = tags[j-1], tags[j]
		}
	}
	return tags
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
