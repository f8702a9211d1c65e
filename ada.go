// Package ada is the public API of the ADA reproduction: an
// application-conscious data acquirer for visual molecular dynamics.
//
// ADA is a light-weight file-system middleware that pre-processes molecular
// dynamics trajectory data on the storage side: it decompresses the
// trajectory once at ingest, categorizes atoms with the structure file
// (protein / water / lipid / ion / ligand), labels contiguous index ranges
// per category (Algorithm 1 of the paper), and dispatches each tagged
// subset to the backend its tag maps to — the active protein data to fast
// SSD-backed storage, the inactive MISC data to cheap HDD-backed storage.
// A visualization front end then loads exactly the subset it needs
// (`mol addfile bar.xtc tag p`), already decompressed and filtered.
//
// The simplest end-to-end flow:
//
//	store, _ := ada.NewContainerStore(
//		ada.Backend{Name: "ssd", FS: ada.NewMemFS(), Mount: "/mnt1"},
//		ada.Backend{Name: "hdd", FS: ada.NewMemFS(), Mount: "/mnt2"},
//	)
//	acq := ada.New(store, nil, ada.Options{})
//	pdbBytes, xtcBytes, _ := ada.GenerateTrajectory(ada.ScaledSystem(100), 10)
//	report, _ := acq.Ingest("/traj.xtc", pdbBytes, bytes.NewReader(xtcBytes))
//	sub, _ := acq.OpenSubset("/traj.xtc", ada.TagProtein)
//
// Everything the paper's evaluation needs is also exported: the three
// platform models (NewSSDServer, NewSmallCluster, NewFatNode), the VMD-like
// session with its four load paths and OOM accounting, and the TCP
// storage-node server/client for cross-process deployments.
package ada

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"net"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/gpcr"
	"repro/internal/mdsim"
	"repro/internal/metrics"
	"repro/internal/pdb"
	"repro/internal/placement"
	"repro/internal/plfs"
	"repro/internal/rpc"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/tier"
	"repro/internal/vfs"
	"repro/internal/vmd"
	"repro/internal/xtc"
)

// Core middleware types.
type (
	// Acquirer is the ADA middleware instance (data pre-processor +
	// I/O determinator).
	Acquirer = core.ADA
	// Options configures an Acquirer.
	Options = core.Options
	// Granularity selects coarse (p/m) or fine (per-category) tagging.
	Granularity = core.Granularity
	// Placement maps tags to backend names.
	Placement = core.Placement
	// IngestReport summarizes one ingest pass.
	IngestReport = core.IngestReport
	// Manifest records an ingested dataset's subsets and placement.
	Manifest = core.Manifest
	// LabelSet is the labeler's output (Algorithm 1).
	LabelSet = core.LabelSet
	// SubsetReader streams one tagged subset's frames.
	SubsetReader = core.SubsetReader
	// StorageCost models the storage node's pre-processing CPU rates.
	StorageCost = core.StorageCost
)

// Storage types.
type (
	// FS is the POSIX-like file-system interface all backends implement.
	FS = vfs.FS
	// File is an open file handle.
	File = vfs.File
	// Backend is one mount of the PLFS-style container store.
	Backend = plfs.Backend
	// ContainerStore is the multi-backend container layer ADA dispatches
	// through.
	ContainerStore = plfs.FS
)

// Workload and front-end types.
type (
	// SystemConfig describes a synthetic GPCR system's composition.
	SystemConfig = gpcr.Config
	// System is a built synthetic system.
	System = gpcr.System
	// Frame is one trajectory snapshot.
	Frame = xtc.Frame
	// Session is a VMD-like process with memory accounting.
	Session = vmd.Session
	// ComputeCost models the compute node's CPU rates.
	ComputeCost = vmd.ComputeCost
	// Platform is one of the paper's three evaluation environments.
	Platform = cluster.Platform
	// Dataset is a workload staged on a platform.
	Dataset = cluster.Dataset
	// Env is the virtual clock + profile experiments charge into.
	Env = sim.Env
)

// Tags and granularities.
const (
	// TagProtein is the active-data tag ("p").
	TagProtein = core.TagProtein
	// TagMisc is the inactive-data tag ("m").
	TagMisc = core.TagMisc
	// Coarse groups data into p and m, as the paper's prototype does.
	Coarse = core.Coarse
	// Fine groups data per residue category (Section 4.1's extension).
	Fine = core.Fine
)

// ErrOutOfMemory reports an OOM-killed load (re-exported from the session).
var ErrOutOfMemory = vmd.ErrOutOfMemory

// New returns an ADA middleware instance over a container store. env may be
// nil to disable virtual-time accounting.
func New(store *ContainerStore, env *Env, opts Options) *Acquirer {
	return core.New(store, env, opts)
}

// NewContainerStore builds the PLFS-style container layer over backends.
func NewContainerStore(backends ...Backend) (*ContainerStore, error) {
	return plfs.New(backends...)
}

// NewMemFS returns an in-memory backend file system.
func NewMemFS() *vfs.MemFS { return vfs.NewMemFS() }

// NewEnv returns a fresh virtual-time environment.
func NewEnv() *Env { return sim.NewEnv() }

// NewSession returns a VMD-like session. memCapacity of 0 means unlimited;
// a zero ComputeCost selects the calibrated defaults.
func NewSession(env *Env, memCapacity int64, cost ComputeCost) *Session {
	return vmd.NewSession(env, memCapacity, cost)
}

// DefaultSystem returns the paper-scale synthetic CB1-like system
// (~43,500 atoms, ~42.5% protein).
func DefaultSystem() SystemConfig { return gpcr.Default() }

// ScaledSystem returns DefaultSystem shrunk by factor for fast runs.
func ScaledSystem(factor int) SystemConfig { return gpcr.Scaled(factor) }

// The three evaluation platforms (Sections 4.1-4.3).
var (
	NewSSDServer    = cluster.NewSSDServer
	NewSmallCluster = cluster.NewSmallCluster
	NewFatNode      = cluster.NewFatNode
)

// GenerateTrajectory builds the system, writes its structure file, and
// simulates a compressed trajectory of the given length. It is the
// convenience entry point for examples and tools; use the internal
// generator packages directly for streaming generation of large files.
func GenerateTrajectory(cfg SystemConfig, frames int) (pdbBytes, xtcBytes []byte, err error) {
	sys, err := cfg.Build()
	if err != nil {
		return nil, nil, err
	}
	var pb bytes.Buffer
	if err := pdb.Write(&pb, sys.Structure); err != nil {
		return nil, nil, err
	}
	cats := make([]pdb.Category, sys.Structure.NAtoms())
	for i := range cats {
		cats[i] = sys.Structure.Atoms[i].Category
	}
	s, err := mdsim.New(sys.Coords, cats, sys.Box, mdsim.DefaultParams())
	if err != nil {
		return nil, nil, err
	}
	var tb bytes.Buffer
	w := xtc.NewWriter(&tb)
	if err := s.WriteTrajectory(w, frames); err != nil {
		return nil, nil, err
	}
	return pb.Bytes(), tb.Bytes(), nil
}

// ServeStorageNode exposes a backend file system on a TCP listener (the
// cmd/adanode entry point); it blocks until the listener closes.
func ServeStorageNode(ln net.Listener, fsys FS, logger *log.Logger) error {
	return rpc.NewServer(fsys, logger).Serve(ln)
}

// DialStorageNode connects to a remote storage node; the returned client
// implements FS and can be used as a container-store backend.
func DialStorageNode(addr string) (*rpc.Client, error) { return rpc.Dial(addr) }

// Transport resilience (see DESIGN.md "Failure model").
type (
	// RetryPolicy bounds a storage-node client's deadlines, retries, and
	// backoff; retries are idempotency-aware.
	RetryPolicy = rpc.RetryPolicy
	// NodeDialer customizes how a storage-node client connects (e.g. to
	// wrap the transport with a FaultInjector).
	NodeDialer = rpc.Dialer
	// FaultInjector deterministically injects transport and file-system
	// faults for resilience testing.
	FaultInjector = faultfs.Injector
	// FaultRule is one fault clause of an injector.
	FaultRule = faultfs.Rule
)

// Resilience errors.
var (
	// ErrBackendDown marks a call to a backend whose retry budget is
	// exhausted. Every layer passes it up instead of hanging; only a
	// StorageCluster remembers it, to read from the other replicas first.
	ErrBackendDown = vfs.ErrBackendDown
	// ErrClientClosed is returned by storage-node calls issued after Close.
	ErrClientClosed = rpc.ErrClientClosed
	// ErrServerClosed is how a storage node's Serve reports a graceful
	// shutdown.
	ErrServerClosed = rpc.ErrServerClosed
	// ErrFaultInjected marks an error synthesized by a FaultInjector.
	ErrFaultInjected = faultfs.ErrInjected
)

// DefaultRetryPolicy returns the production retry defaults used by
// DialStorageNode.
func DefaultRetryPolicy() RetryPolicy { return rpc.DefaultRetryPolicy() }

// DialStorageNodeWith connects to a storage node through a custom dialer
// (nil means plain TCP) under an explicit retry policy.
func DialStorageNodeWith(addr string, dialer NodeDialer, policy RetryPolicy) (*rpc.Client, error) {
	return rpc.DialWith(addr, dialer, policy)
}

// ParseFaultSpec builds a fault injector from its textual form, e.g.
// "seed=42; drop:conn.read:every=3; slow:read:delay=50ms" (the adanode
// -fault-spec grammar).
func ParseFaultSpec(spec string) (*FaultInjector, error) { return faultfs.Parse(spec) }

// InjectFaults wraps a backend file system so the injector's rules apply
// to its operations.
func InjectFaults(fsys FS, in *FaultInjector) FS { return faultfs.Wrap(fsys, in) }

// InjectConnFaults wraps a network connection so the injector's conn.read
// and conn.write rules apply; combine with a NodeDialer to fault a
// storage-node client's transport:
//
//	dialer := func(addr string) (net.Conn, error) {
//		conn, err := net.Dial("tcp", addr)
//		if err != nil {
//			return nil, err
//		}
//		return ada.InjectConnFaults(conn, in), nil
//	}
func InjectConnFaults(conn net.Conn, in *FaultInjector) net.Conn {
	return faultfs.WrapConn(conn, in)
}

// Multi-node placement (see DESIGN.md "Cluster model"): a versioned table
// maps container directories onto storage nodes with R-way replication;
// the cluster FS routes reads through replica failover and hedging, and
// rebalances data when the table changes.
type (
	// PlacementTable is the versioned container-to-node map every cluster
	// member serves (adanode -cluster-table / -join).
	PlacementTable = placement.Table
	// PlacementNode names one storage node and its address.
	PlacementNode = placement.Node
	// StorageCluster is a replicated FS over the placement table's nodes;
	// use it as the single backend of a ContainerStore.
	StorageCluster = placement.Cluster
	// ClusterConfig tunes cluster behavior (hedged-read delay, metrics).
	ClusterConfig = placement.Config
	// RebalanceReport summarizes what one Cluster.Rebalance moved.
	RebalanceReport = placement.RebalanceReport
	// NodePool is a vfs.FS fanning calls over several connections to one
	// storage node; register one per node as the Cluster's FS.
	NodePool = rpc.Pool
)

// NewStorageCluster builds the replicated cluster FS: every node the
// table names must have an FS (usually a NodePool) in nodes.
func NewStorageCluster(tbl *PlacementTable, nodes map[string]FS, cfg ClusterConfig) (*StorageCluster, error) {
	return placement.NewCluster(tbl, nodes, cfg)
}

// ParsePlacementTable decodes and validates a placement table's JSON form.
func ParsePlacementTable(data []byte) (*PlacementTable, error) { return placement.Unmarshal(data) }

// NewStorageNodePool opens size lazy connections to one storage node under
// the given retry policy (nil dialer means plain TCP). Pool calls fail
// with ErrBackendDown once retries exhaust, which is what lets a Cluster
// fail over instead of hanging.
func NewStorageNodePool(addr string, size int, dialer NodeDialer, policy RetryPolicy) *NodePool {
	return rpc.NewPool(addr, size, dialer, policy)
}

// Durability types (see DESIGN.md "Durability model"): crash-consistent
// ingest recovery, end-to-end checksum verification, and background
// scrubbing.
type (
	// RecoveryAction reports what Recover did to one container.
	RecoveryAction = core.RecoveryAction
	// FsckResult is one dataset's integrity verdict list.
	FsckResult = core.FsckResult
	// DroppingVerdict is Fsck's judgement of one dropping.
	DroppingVerdict = core.DroppingVerdict
	// Scrubber verifies every dataset's checksums at a bounded byte rate.
	Scrubber = core.Scrubber
	// ScrubReport summarizes one scrub pass.
	ScrubReport = core.ScrubReport
)

// Recovery outcomes per container, as returned by Acquirer.Recover.
const (
	// RecoveryClean: committed, nothing to do.
	RecoveryClean = core.RecoveryClean
	// RecoverySwept: committed, leftover ingest state removed.
	RecoverySwept = core.RecoverySwept
	// RecoveryCommitted: an interrupted commit was replayed to completion.
	RecoveryCommitted = core.RecoveryCommitted
	// RecoveryRolledBack: the ingest never committed; the container was
	// removed.
	RecoveryRolledBack = core.RecoveryRolledBack
)

// ErrCorrupted marks a verified read whose stored bytes fail their
// checksum on every copy the store holds.
var ErrCorrupted = vfs.ErrCorrupted

// Tiering (see DESIGN.md "Tiering model"): read-path heat tracking and a
// heat-driven background migrator that moves tagged subsets between
// backends with the ingest pipeline's crash-safety guarantees.
type (
	// AccessFunc observes one read-path dropping access; install a tracker's
	// Record via Acquirer.SetAccessFunc (and FrameCache.SetAccessFunc for
	// cache hits, which storage cannot see).
	AccessFunc = core.AccessFunc
	// HeatTracker aggregates accesses into exponentially decayed
	// per-dropping heat.
	HeatTracker = tier.Tracker
	// TierPolicy ranks migration candidates and supplies pins.
	TierPolicy = tier.Policy
	// LFUPolicy is the default decayed-LFU policy with per-tag pins.
	LFUPolicy = tier.LFU
	// TierConfig parameterizes the migration planner (backends, capacity,
	// watermarks).
	TierConfig = tier.Config
	// Migrator plans and executes heat-driven migrations.
	Migrator = tier.Migrator
	// MigrationStep summarizes one planning round.
	MigrationStep = tier.StepReport
	// TierReport snapshots placements and heat for operators.
	TierReport = tier.Report
)

// Per-tag placement pins (TierPolicy overrides that outrank heat).
const (
	// PinNone lets the heat policy decide.
	PinNone = tier.PinNone
	// PinFast keeps a tag on the fast backend once promoted.
	PinFast = tier.PinFast
	// PinNever excludes a tag from migration.
	PinNever = tier.PinNever
)

// NewHeatTracker returns a heat tracker reading seconds from now (nil =
// wall clock) with the given half-life (0 disables decay).
func NewHeatTracker(now func() float64, halfLifeSeconds float64) *HeatTracker {
	if now == nil {
		now = tier.WallClock()
	}
	return tier.NewTracker(now, halfLifeSeconds)
}

// NewLFUPolicy returns the default decayed-LFU policy with no pins.
func NewLFUPolicy() *LFUPolicy { return tier.NewLFU() }

// NewMigrator validates cfg against the store and returns a migration
// planner; pol nil selects the default decayed-LFU policy.
func NewMigrator(acq *Acquirer, store *ContainerStore, trk *HeatTracker, pol TierPolicy, cfg TierConfig) (*Migrator, error) {
	return tier.NewMigrator(acq, store, trk, pol, cfg)
}

// ParseTierSpec parses the adanode/adactl tier-spec grammar, e.g.
// "fast=ssd,slow=hdd,cap=64MiB,halflife=5m,pin=p:fast"; the returned
// policy carries the pins.
func ParseTierSpec(spec string) (TierConfig, *LFUPolicy, error) { return tier.ParseSpec(spec) }

// Extension types (see DESIGN.md "extensions"):
type (
	// Schema is the config-file-driven categorizer (the paper's stated
	// future work).
	Schema = core.Schema
	// SchemaRule is one first-match-wins categorization rule.
	SchemaRule = core.Rule
	// TrajectoryReader abstracts ingest input formats (XTC, DCD, TRR).
	TrajectoryReader = core.TrajectoryReader
	// FrameSource provides random frame access for playback.
	FrameSource = vmd.FrameSource
	// FrameCache is the LRU playback cache with memory accounting.
	FrameCache = vmd.FrameCache
	// PlayStats summarizes a playback run (hit rate, stalls).
	PlayStats = vmd.PlayStats
)

// ParseSchema reads a user-defined categorization schema from its JSON
// configuration form.
func ParseSchema(data []byte) (*Schema, error) { return core.ParseSchema(data) }

// Trajectory-format adapters for Acquirer.IngestTrajectory.
var (
	// NewXTCTrajectory wraps a compressed XTC stream.
	NewXTCTrajectory = core.NewXTCTrajectory
	// NewDCDTrajectory wraps a NAMD/CHARMM DCD stream.
	NewDCDTrajectory = core.NewDCDTrajectory
	// NewTRRTrajectory wraps a GROMACS TRR stream.
	NewTRRTrajectory = core.NewTRRTrajectory
)

// Playback access patterns (Section 2.1's replay behaviors).
var (
	// SequentialPattern plays 0..frames-1 once.
	SequentialPattern = vmd.Sequential
	// BackAndForthPattern sweeps the trajectory forward and backward.
	BackAndForthPattern = vmd.BackAndForth
	// RandomAccessPattern plays uniformly random frames.
	RandomAccessPattern = vmd.RandomAccess
)

// Select evaluates a VMD-style atom-selection expression ("protein and
// chain A") against a structure, returning the matching atom index ranges.
var Select = vmd.Select

// Multi-tenant serving (internal/serve): many playback sessions multiplex
// over one shared, size-bounded frame cache with heat-aware admission,
// deficit-round-robin fair-share scheduling, per-tenant quotas, and
// singleflight request coalescing. A ServeHandle is a playback FrameSource,
// so sessions play through the fabric with Session.PlayThrough.
type (
	// ServeFabric is the live multi-tenant serving layer.
	ServeFabric = serve.Fabric
	// ServeConfig sizes a fabric (cache budget, DRR quantum, quotas).
	ServeConfig = serve.Config
	// ServeHandle is one tenant's view of a dataset subset in the fabric.
	ServeHandle = serve.Handle
	// ServeSimSession is one synthetic client in a SimulateServe run.
	ServeSimSession = serve.SimSession
	// ServeSimReport summarizes a SimulateServe run.
	ServeSimReport = serve.SimReport
	// ServeCostModel prices the simulated node's decode and hit paths.
	ServeCostModel = serve.CostModel
)

// DefaultServeCostModel matches the repo's measured decode rate.
var DefaultServeCostModel = serve.DefaultCostModel

// NewServeFabric starts a live serving fabric; Close it when done.
func NewServeFabric(cfg ServeConfig) *ServeFabric { return serve.New(cfg) }

// SimulateServe replays sessions through the fabric's deterministic
// discrete-event simulator (virtual clock, one decode server); latency
// percentiles land in cfg.Metrics under serve.tenant.* / serve.class.*.
func SimulateServe(cfg ServeConfig, cost ServeCostModel, sessions []ServeSimSession) ServeSimReport {
	return serve.Simulate(cfg, cost, sessions)
}

// Streaming ingest (see DESIGN.md "Streaming model"): a live dataset is an
// open container a producer appends frame batches to while readers tail the
// growing head with bounded staleness. Sealing turns it into an ordinary
// immutable container, byte-identical to a one-shot Ingest of the same
// frames.
type (
	// LiveIngest is an open append session on a live dataset.
	LiveIngest = core.LiveIngest
	// LiveHead is the durably published state of a live dataset.
	LiveHead = core.LiveHead
	// LiveReader tails one subset of a live dataset at the core layer;
	// most callers want the higher-level StreamSource.
	LiveReader = core.LiveReader
	// StreamSource is a tailing FrameSource over a live dataset; open a
	// fabric handle over it to play a trajectory as it grows.
	StreamSource = stream.Source
	// StreamOptions configures a StreamSource (staleness bound, metrics).
	StreamOptions = stream.Options
	// StreamIngestor decouples a bursty producer from storage latency with
	// a bounded append queue; backpressure lands in stream.append.blocked_ns.
	StreamIngestor = stream.Ingestor
)

// RecoveryLive: a streaming ingest was killed mid-append; the container is
// still live and can be resumed with Acquirer.ResumeLiveIngest.
const RecoveryLive = core.RecoveryLive

// DefaultStreamStaleness bounds how far a tailing reader's view of the head
// may lag the producer's last publication.
const DefaultStreamStaleness = stream.DefaultStaleness

// ErrLiveClosed unblocks readers parked past the head when their live
// source is closed.
var ErrLiveClosed = core.ErrLiveClosed

// XTCIndex records every frame's offset and encoded size in a compressed
// trajectory stream; producers use it to cut whole-frame append batches.
type XTCIndex = xtc.Index

// BuildXTCIndex scans a compressed XTC stream once and indexes its frame
// boundaries without decompressing coordinate payloads.
func BuildXTCIndex(r io.ReaderAt, size int64) (*XTCIndex, error) {
	return xtc.BuildIndex(r, size)
}

// OpenStream starts tailing one subset of a live (or already sealed)
// dataset.
func OpenStream(acq *Acquirer, logical, tag string, opts StreamOptions) (*StreamSource, error) {
	return stream.Open(acq, logical, tag, opts)
}

// NewStreamIngestor wraps an open live-ingest session with a bounded append
// queue (0 selects the default bound); reg may be nil. Close drains the
// queue and seals the dataset.
func NewStreamIngestor(li *LiveIngest, queueBatches int, reg *MetricsRegistry) *StreamIngestor {
	return stream.NewIngestor(li, queueBatches, reg)
}

// Runtime observability (see internal/metrics): the storage stack —
// container store, RPC nodes, ingest pipeline, playback cache — records
// wall-clock counters, latency histograms, and span traces into a shared
// registry, independent of the virtual-time Env profiles.
type (
	// MetricsRegistry is the concurrency-safe runtime metrics registry.
	MetricsRegistry = metrics.Registry
	// MetricsSnapshot is a point-in-time copy of a registry.
	MetricsSnapshot = metrics.Snapshot
)

// Metrics returns the process-wide default registry every instrumented
// component reports into unless configured otherwise. Print a run summary
// with Metrics().WriteText(os.Stdout), or serve it: cmd/adanode exposes the
// same registry over HTTP with -metrics-addr.
func Metrics() *MetricsRegistry { return metrics.Default }

// NewMetricsRegistry returns an isolated registry; wire it through
// Options.Metrics, ContainerStore.SetMetrics, Session.SetMetrics, or
// vfs.Instrument to scope collection to one component.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// InstrumentFS wraps a backend file system so every operation, byte, and
// latency is recorded under prefix in reg (nil = the default registry).
func InstrumentFS(fsys FS, reg *MetricsRegistry, prefix string) FS {
	return vfs.Instrument(fsys, reg, prefix)
}

// Version identifies this reproduction.
const Version = "1.0.0"

// String renders a short library banner.
func String() string {
	return fmt.Sprintf("ada %s — application-conscious data acquirer (ICPP'21 reproduction)", Version)
}
