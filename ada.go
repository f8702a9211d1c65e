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
// Beyond that flow the facade carries what the examples, the tests and the
// README reach: two of the paper's platform models (NewSmallCluster,
// NewFatNode), the VMD-like session, the TCP storage node and the replicated
// cluster over it, streaming ingest, and the runtime metrics registry.
// Everything else lives under internal/.
package ada

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"net"

	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/gpcr"
	"repro/internal/mdsim"
	"repro/internal/metrics"
	"repro/internal/pdb"
	"repro/internal/placement"
	"repro/internal/platform"
	"repro/internal/plfs"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/stream"
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
	// IngestReport summarizes one ingest pass.
	IngestReport = core.IngestReport
)

// Storage types.
type (
	// FS is the POSIX-like file-system interface all backends implement.
	FS = vfs.FS
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
	// Session is a VMD-like process with memory accounting.
	Session = vmd.Session
	// ComputeCost models the compute node's CPU rates.
	ComputeCost = vmd.ComputeCost
	// Dataset is a workload staged on a platform.
	Dataset = platform.Dataset
	// Env is the virtual clock + profile experiments charge into.
	Env = sim.Env
)

// Tags and granularities (Options.Granularity).
const (
	// TagProtein is the active-data tag ("p").
	TagProtein = core.TagProtein
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

// NewSession returns a VMD-like session. memCapacity of 0 means unlimited;
// a zero ComputeCost selects the calibrated defaults.
func NewSession(env *Env, memCapacity int64, cost ComputeCost) *Session {
	return vmd.NewSession(env, memCapacity, cost)
}

// ScaledSystem returns the paper-scale synthetic CB1-like system (~43,500
// atoms, ~42.5% protein) shrunk by factor for fast runs.
func ScaledSystem(factor int) SystemConfig { return gpcr.Scaled(factor) }

// Two of the evaluation platforms (Sections 4.2 and 4.3).
var (
	NewSmallCluster = platform.NewSmallCluster
	NewFatNode      = platform.NewFatNode
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
)

// ErrBackendDown marks a call to a backend whose retry budget is exhausted.
// Every layer passes it up instead of hanging; only a StorageCluster
// remembers it, to read from the other replicas first.
var ErrBackendDown = vfs.ErrBackendDown

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

// Multi-node placement (see DESIGN.md "Cluster model"): a versioned table
// maps container directories onto storage nodes with R-way replication;
// the cluster FS reads from one replica at a time, failing over to the next
// on an error, and rebalances data when the table changes.
type (
	// PlacementTable is the versioned container-to-node map every cluster
	// member serves (adanode -cluster-table / -join).
	PlacementTable = placement.Table
	// StorageCluster is a replicated FS over the placement table's nodes;
	// use it as the single backend of a ContainerStore.
	StorageCluster = placement.Cluster
	// ClusterConfig tunes a cluster (its metrics registry).
	ClusterConfig = placement.Config
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

// ErrCorrupted marks a verified read whose stored bytes fail their
// checksum on every copy the store holds.
var ErrCorrupted = vfs.ErrCorrupted

// Schema is the config-file-driven categorizer (the paper's stated future
// work; see DESIGN.md "extensions").
type Schema = core.Schema

// ParseSchema reads a user-defined categorization schema from its JSON
// configuration form.
func ParseSchema(data []byte) (*Schema, error) { return core.ParseSchema(data) }

// NewXTCTrajectory wraps a compressed XTC stream for
// Acquirer.IngestTrajectory.
var NewXTCTrajectory = core.NewXTCTrajectory

// BackAndForthPattern sweeps the trajectory forward and backward, one of
// Section 2.1's replay behaviors.
var BackAndForthPattern = vmd.BackAndForth

// Select evaluates a VMD-style atom-selection expression ("protein and
// chain A") against a structure, returning the matching atom index ranges.
var Select = vmd.Select

// Streaming ingest (see DESIGN.md "Streaming model"): a live dataset is an
// open container a producer appends frame batches to while readers tail the
// growing head with bounded staleness. Sealing turns it into an ordinary
// immutable container, byte-identical to a one-shot Ingest of the same
// frames.
type (
	// StreamSource is a tailing frame source over a live dataset: it plays
	// a trajectory as it grows.
	StreamSource = stream.Source
	// StreamOptions configures a StreamSource (staleness bound, metrics).
	StreamOptions = stream.Options
)

// RecoveryLive: a streaming ingest was killed mid-append; the container is
// still live and can be resumed with Acquirer.ResumeLiveIngest.
const RecoveryLive = core.RecoveryLive

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

// MetricsRegistry is the concurrency-safe runtime metrics registry (see
// internal/metrics): the storage stack — container store, RPC nodes, ingest
// pipeline, playback cache — records wall-clock counters, latency
// histograms, and span traces into one, independent of the virtual-time Env
// profiles.
type MetricsRegistry = metrics.Registry

// Metrics returns the process-wide default registry every instrumented
// component reports into unless configured otherwise. Print a run summary
// with Metrics().WriteText(os.Stdout), or serve it: cmd/adanode exposes the
// same registry over HTTP with -metrics-addr.
func Metrics() *MetricsRegistry { return metrics.Default }

// NewMetricsRegistry returns an isolated registry; wire it through
// Options.Metrics, ContainerStore.SetMetrics, Session.SetMetrics, or
// InstrumentFS to scope collection to one component.
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
