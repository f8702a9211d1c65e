// Node-kill fault matrix: a real multi-node ADA cluster — TCP rpc servers
// over per-node stores, placement.Cluster routing through rpc.Pool clients
// — with each node killed, restarted, and partitioned at swept points
// mid-read and mid-ingest. The matrix asserts the robustness headline:
// R=2 reads stay byte-identical through any single node death, failover
// completes within the retry deadline instead of hanging, and a node crash
// mid-ingest leaves the dataset either fully committed (byte-identical,
// exactly one copy per replica) or rolled back everywhere after restart +
// Recover — never half-written.
//
// Set ADA_CLUSTER_MATRIX_OUT to a file path to get the scenario summary
// as a TSV artifact (the CI race job uploads it).
package placement_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"os"
	"path"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/gpcr"
	"repro/internal/mdsim"
	"repro/internal/metrics"
	"repro/internal/pdb"
	"repro/internal/placement"
	"repro/internal/plfs"
	"repro/internal/rpc"
	"repro/internal/vfs"
	"repro/internal/xtc"
)

// matrixPolicy is the tight client retry policy the matrix runs under: it
// bounds how long a call to a dead or partitioned node can take before the
// cluster layer fails over, and therefore bounds the whole degraded read.
func matrixPolicy() rpc.RetryPolicy {
	return rpc.RetryPolicy{
		MaxAttempts:   3,
		BaseBackoff:   5 * time.Millisecond,
		MaxBackoff:    40 * time.Millisecond,
		BackoffBudget: 200 * time.Millisecond,
		CallTimeout:   500 * time.Millisecond,
	}
}

// failoverBound is the generous wall-clock ceiling for a degraded read.
// Per RPC the worst case is MaxAttempts*CallTimeout + BackoffBudget
// (~1.7s); a degraded stream retries a handful of calls before every
// replica handle has failed over. The slack absorbs -race and loaded CI.
const failoverBound = 20 * time.Second

const (
	matrixLogical = "/traj.md"
	matrixMount   = "/clu"
	matrixFrames  = 6
	matrixScale   = 80
)

// matrixNode is one storage node: a MemFS "disk" that survives kills, an
// rpc server on a fixed loopback address, and the fault hooks. restart
// builds a fresh server over the same disk on the same address — a process
// restart, losing the old server's handle table but not the data.
type matrixNode struct {
	name string
	addr string
	disk *vfs.MemFS
	srv  *rpc.Server
	ln   *faultfs.NodeListener
	inj  *faultfs.Injector
	pool *rpc.Pool
}

func (n *matrixNode) start(t *testing.T) {
	t.Helper()
	bind := n.addr
	if bind == "" {
		bind = "127.0.0.1:0"
	}
	var raw net.Listener
	var err error
	for i := 0; i < 100; i++ { // a restarted node re-binds its old port
		raw, err = net.Listen("tcp", bind)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("node %s: listen %s: %v", n.name, bind, err)
	}
	n.addr = raw.Addr().String()
	n.inj, err = faultfs.New(1)
	if err != nil {
		t.Fatal(err)
	}
	n.ln = faultfs.WrapNodeListener(raw, n.inj)
	n.srv = rpc.NewServer(n.disk, nil)
	n.srv.SetMetrics(metrics.NewRegistry())
	go n.srv.Serve(n.ln)
}

func (n *matrixNode) stop() {
	if n.srv != nil {
		n.srv.Close()
	}
	if n.ln != nil {
		n.ln.Kill()
	}
}

// matrixHarness wires three nodes into a cluster (R=2), a plfs container
// store over it, and an ADA on top — the full stack a remote viewer uses.
type matrixHarness struct {
	nodes map[string]*matrixNode
	c     *placement.Cluster
	ada   *core.ADA
	reg   *metrics.Registry
}

func newMatrixHarness(t *testing.T) *matrixHarness {
	t.Helper()
	h := &matrixHarness{nodes: map[string]*matrixNode{}, reg: metrics.NewRegistry()}
	var tblNodes []placement.Node
	fss := map[string]vfs.FS{}
	for _, name := range []string{"n1", "n2", "n3"} {
		n := &matrixNode{name: name, disk: vfs.NewMemFS()}
		n.start(t)
		n.pool = rpc.NewPool(n.addr, 2, nil, matrixPolicy())
		h.nodes[name] = n
		tblNodes = append(tblNodes, placement.Node{Name: name, Addr: n.addr})
		fss[name] = n.pool
	}
	t.Cleanup(func() {
		for _, n := range h.nodes {
			n.pool.Close()
			n.stop()
		}
	})
	tbl := &placement.Table{Version: 1, Replication: 2, Nodes: tblNodes}
	c, err := placement.NewCluster(tbl, fss, placement.Config{HedgeDelay: -1, Metrics: h.reg})
	if err != nil {
		t.Fatal(err)
	}
	h.c = c
	store, err := plfs.New(plfs.Backend{Name: "clu", FS: c, Mount: matrixMount})
	if err != nil {
		t.Fatal(err)
	}
	store.SetMetrics(h.reg)
	h.ada = core.New(store, nil, core.Options{Metrics: h.reg})
	return h
}

// restart brings a killed node back on its old address over its old disk
// and reprobes it so the cluster stops deprioritizing it.
func (h *matrixHarness) restart(t *testing.T, name string) {
	t.Helper()
	n := h.nodes[name]
	n.stop()
	n.start(t)
	if err := h.c.Probe(name); err != nil {
		t.Fatalf("probe of restarted %s: %v", name, err)
	}
}

// --- deterministic fixture and frame fingerprinting ---

var (
	fixtureOnce sync.Once
	fixturePDB  []byte
	fixtureTraj []byte
	fixtureSig  string
	sigTable    = crc32.MakeTable(crc32.Castagnoli)
)

// matrixFixture builds the dataset once (mdsim is deterministic) and
// computes the reference signature by ingesting into a plain in-memory
// store — ground truth no cluster fault can touch.
func matrixFixture(t *testing.T) (pdbBytes, traj []byte, sig string) {
	t.Helper()
	fixtureOnce.Do(func() {
		sys, err := gpcr.Scaled(matrixScale).Build()
		if err != nil {
			t.Fatal(err)
		}
		var pb bytes.Buffer
		if err := pdb.Write(&pb, sys.Structure); err != nil {
			t.Fatal(err)
		}
		cats := make([]pdb.Category, sys.Structure.NAtoms())
		for i := range cats {
			cats[i] = sys.Structure.Atoms[i].Category
		}
		s, err := mdsim.New(sys.Coords, cats, sys.Box, mdsim.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		var tb bytes.Buffer
		if err := s.WriteTrajectory(xtc.NewWriter(&tb), matrixFrames); err != nil {
			t.Fatal(err)
		}
		fixturePDB, fixtureTraj = pb.Bytes(), tb.Bytes()

		mem, err := plfs.New(plfs.Backend{Name: "mem", FS: vfs.NewMemFS(), Mount: matrixMount})
		if err != nil {
			t.Fatal(err)
		}
		ref := core.New(mem, nil, core.Options{Metrics: metrics.NewRegistry()})
		if _, err := ref.Ingest(matrixLogical, fixturePDB, bytes.NewReader(fixtureTraj)); err != nil {
			t.Fatal(err)
		}
		fixtureSig = datasetSig(t, ref, matrixLogical)
	})
	return fixturePDB, fixtureTraj, fixtureSig
}

func hashFrame(crc io.Writer, f *xtc.Frame) {
	var b [8]byte
	binary.LittleEndian.PutUint32(b[:4], uint32(f.Step))
	binary.LittleEndian.PutUint32(b[4:], uint32(len(f.Coords)))
	crc.Write(b[:])
	for _, v := range f.Coords {
		binary.LittleEndian.PutUint32(b[:4], math.Float32bits(v[0]))
		binary.LittleEndian.PutUint32(b[4:], math.Float32bits(v[1]))
		crc.Write(b[:])
		binary.LittleEndian.PutUint32(b[:4], math.Float32bits(v[2]))
		crc.Write(b[:4])
	}
}

// datasetSig fingerprints every frame of both subsets: equal signatures
// mean byte-identical decoded trajectories.
func datasetSig(t *testing.T, a *core.ADA, logical string) string {
	t.Helper()
	sig, _, err := readSig(a, logical, -1, nil)
	if err != nil {
		t.Fatalf("datasetSig: %v", err)
	}
	return sig
}

// readSig streams both subsets, firing kill() just before frame killAt
// (counted across subsets; -1 never fires), and returns the signature
// plus the wall time spent after the kill fired.
func readSig(a *core.ADA, logical string, killAt int, kill func()) (string, time.Duration, error) {
	var parts []string
	frame := 0
	var killed time.Time
	for _, tag := range []string{core.TagProtein, core.TagMisc} {
		sr, err := a.OpenSubset(logical, tag)
		if err != nil {
			return "", 0, fmt.Errorf("open %s: %w", tag, err)
		}
		crc := crc32.New(sigTable)
		n := 0
		for {
			if frame == killAt && kill != nil {
				kill()
				killed = time.Now()
			}
			f, err := sr.ReadFrame()
			if err == io.EOF {
				break
			}
			if err != nil {
				sr.Close()
				return "", 0, fmt.Errorf("%s frame %d: %w", tag, n, err)
			}
			hashFrame(crc, f)
			frame++
			n++
		}
		sr.Close()
		parts = append(parts, fmt.Sprintf("%s:%d:%08x", tag, n, crc.Sum32()))
	}
	var degraded time.Duration
	if !killed.IsZero() {
		degraded = time.Since(killed)
	}
	return strings.Join(parts, " "), degraded, nil
}

// --- matrix summary artifact ---

var (
	matrixMu   sync.Mutex
	matrixRows []string
)

func recordMatrix(t *testing.T, scenario, victim, point, outcome string, elapsed time.Duration) {
	row := fmt.Sprintf("%s\t%s\t%s\t%s\t%d", scenario, victim, point, outcome, elapsed.Milliseconds())
	t.Logf("matrix: %s", row)
	matrixMu.Lock()
	matrixRows = append(matrixRows, row)
	matrixMu.Unlock()
}

func TestMain(m *testing.M) {
	code := m.Run()
	if out := os.Getenv("ADA_CLUSTER_MATRIX_OUT"); out != "" && len(matrixRows) > 0 {
		matrixMu.Lock()
		body := "scenario\tvictim\tpoint\toutcome\telapsed_ms\n" + strings.Join(matrixRows, "\n") + "\n"
		matrixMu.Unlock()
		if err := os.WriteFile(out, []byte(body), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "matrix summary: %v\n", err)
			if code == 0 {
				code = 1
			}
		}
	}
	os.Exit(code)
}

// --- scenarios ---

// TestMatrixKillNodeMidRead kills each node in turn at swept points during
// a streaming read. Every sweep must return frames byte-identical to the
// undegraded baseline, within the failover bound.
func TestMatrixKillNodeMidRead(t *testing.T) {
	pdbBytes, traj, want := matrixFixture(t)
	h := newMatrixHarness(t)
	if _, err := h.ada.Ingest(matrixLogical, pdbBytes, bytes.NewReader(traj)); err != nil {
		t.Fatal(err)
	}
	if got := datasetSig(t, h.ada, matrixLogical); got != want {
		t.Fatalf("healthy cluster read diverges from reference: %s vs %s", got, want)
	}
	reps := h.c.Table().Place(path.Join(matrixMount, matrixLogical, "subset.p"))

	killPoints := []int{0, matrixFrames, 2*matrixFrames - 1} // first, mid, last frame
	for _, victim := range []string{"n1", "n2", "n3"} {
		for _, at := range killPoints {
			n := h.nodes[victim]
			start := time.Now()
			sig, degraded, err := readSig(h.ada, matrixLogical, at, func() { n.ln.Kill() })
			if err != nil {
				t.Fatalf("kill %s at frame %d: read failed: %v", victim, at, err)
			}
			if sig != want {
				t.Fatalf("kill %s at frame %d: degraded read diverged: %s vs %s", victim, at, sig, want)
			}
			if degraded > failoverBound {
				t.Fatalf("kill %s at frame %d: degraded read took %v (> %v)", victim, at, degraded, failoverBound)
			}
			outcome := "identical"
			if holdsData := contains(reps, victim); !holdsData {
				outcome = "identical-bystander"
			}
			recordMatrix(t, "kill-mid-read", victim, fmt.Sprintf("frame-%d", at), outcome, time.Since(start))
			h.restart(t, victim)
		}
	}
}

// tripwireFS counts every store operation against one node — including
// writes on files it handed out — and fires once when the budget runs out.
// Registering it as the victim's cluster FS turns "kill after the Nth op"
// into a deterministic mid-ingest crash point.
type tripwireFS struct {
	vfs.FS
	mu   sync.Mutex
	left int
	fire func()
}

func (f *tripwireFS) tick() {
	f.mu.Lock()
	f.left--
	hit := f.left == 0
	f.mu.Unlock()
	if hit {
		f.fire()
	}
}

func (f *tripwireFS) Create(name string) (vfs.File, error) {
	f.tick()
	file, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &tripwireFile{File: file, fs: f}, nil
}

func (f *tripwireFS) Open(name string) (vfs.File, error) {
	f.tick()
	file, err := f.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &tripwireFile{File: file, fs: f}, nil
}

func (f *tripwireFS) Stat(name string) (vfs.FileInfo, error) { f.tick(); return f.FS.Stat(name) }
func (f *tripwireFS) ReadDir(name string) ([]vfs.FileInfo, error) {
	f.tick()
	return f.FS.ReadDir(name)
}
func (f *tripwireFS) MkdirAll(name string) error   { f.tick(); return f.FS.MkdirAll(name) }
func (f *tripwireFS) Remove(name string) error     { f.tick(); return f.FS.Remove(name) }
func (f *tripwireFS) Rename(old, new string) error { f.tick(); return f.FS.Rename(old, new) }

type tripwireFile struct {
	vfs.File
	fs *tripwireFS
}

func (f *tripwireFile) Write(p []byte) (int, error) { f.fs.tick(); return f.File.Write(p) }

// TestMatrixKillNodeMidIngest crashes each node after the Nth store op of
// an ingest, restarts it, runs Recover, and asserts the all-or-nothing
// invariant: the dataset is either gone from every node, or committed with
// frames byte-identical to the reference and exactly one copy per replica.
func TestMatrixKillNodeMidIngest(t *testing.T) {
	pdbBytes, traj, want := matrixFixture(t)
	for _, victim := range []string{"n1", "n2", "n3"} {
		// A replica node sees ~105-125 ops for this fixture; the early
		// points land in journal/staging writes, the late ones straddle the
		// commit window (journal commit record, staged renames, manifest
		// publish), where recovery must replay instead of roll back.
		for _, killAfter := range []int{2, 8, 30, 96, 104, 112, 120} {
			t.Run(fmt.Sprintf("%s/op-%d", victim, killAfter), func(t *testing.T) {
				h := newMatrixHarness(t)
				n := h.nodes[victim]
				h.c.AddNode(victim, &tripwireFS{FS: n.pool, left: killAfter, fire: func() { n.ln.Kill() }})

				_, ingestErr := h.ada.Ingest(matrixLogical, pdbBytes, bytes.NewReader(traj))
				outcome := "committed"
				if ingestErr != nil {
					h.restart(t, victim)
					for name := range h.nodes {
						if err := h.c.Probe(name); err != nil {
							t.Fatalf("probe %s: %v", name, err)
						}
					}
					actions, err := h.ada.Recover()
					if err != nil {
						t.Fatalf("recover after killing %s: %v", victim, err)
					}
					outcome = "rolledback"
					if act, ok := actions[matrixLogical]; ok && act != core.RecoveryRolledBack {
						outcome = "recovered-" + string(act)
					}
				}

				names, err := h.ada.Datasets()
				if err != nil {
					t.Fatal(err)
				}
				if contains(names, matrixLogical) {
					if got := datasetSig(t, h.ada, matrixLogical); got != want {
						t.Fatalf("recovered dataset diverged: %s vs %s", got, want)
					}
				} else if ingestErr == nil {
					t.Fatal("ingest succeeded but dataset is missing")
				} else {
					outcome = "rolledback"
				}
				assertMatrixLayout(t, h)
				recordMatrix(t, "kill-mid-ingest", victim, fmt.Sprintf("op-%d", killAfter), outcome, 0)
			})
		}
	}
}

// assertMatrixLayout walks every node's disk and checks the durable
// invariants directly against the stored bytes: no staging or journal
// leftovers anywhere, and every file present on exactly its R placement
// replicas with identical content.
func assertMatrixLayout(t *testing.T, h *matrixHarness) {
	t.Helper()
	tbl := h.c.Table()
	files := map[string]map[string][]byte{} // path -> node -> content
	for name, n := range h.nodes {
		err := vfs.Walk(n.disk, "/", func(p string, info vfs.FileInfo) error {
			if info.IsDir {
				return nil
			}
			base := path.Base(p)
			if strings.HasPrefix(base, "staging.") || base == "ingest.journal" {
				t.Errorf("node %s: leftover %s survived recovery", name, p)
			}
			data, err := vfs.ReadFile(n.disk, p)
			if err != nil {
				return err
			}
			if files[p] == nil {
				files[p] = map[string][]byte{}
			}
			files[p][name] = data
			return nil
		})
		if err != nil {
			t.Fatalf("walk %s: %v", name, err)
		}
	}
	for p, holders := range files {
		reps := tbl.Place(p)
		if len(holders) != len(reps) {
			t.Errorf("%s: on %d nodes, want exactly %d (%v)", p, len(holders), len(reps), reps)
		}
		var ref []byte
		for _, rep := range reps {
			data, ok := holders[rep]
			if !ok {
				t.Errorf("%s: missing on replica %s", p, rep)
				continue
			}
			if ref == nil {
				ref = data
			} else if !bytes.Equal(ref, data) {
				t.Errorf("%s: replicas diverge", p)
			}
		}
		for node := range holders {
			if !contains(reps, node) {
				t.Errorf("%s: surplus copy on %s (replicas %v)", p, node, reps)
			}
		}
	}
}

// TestMatrixPartitionedNodeFailsOver partitions each node — its listener
// keeps accepting but every byte blackholes — and asserts reads fail over
// on the retry deadline instead of hanging, still byte-identical.
func TestMatrixPartitionedNodeFailsOver(t *testing.T) {
	pdbBytes, traj, want := matrixFixture(t)
	h := newMatrixHarness(t)
	if _, err := h.ada.Ingest(matrixLogical, pdbBytes, bytes.NewReader(traj)); err != nil {
		t.Fatal(err)
	}
	for _, victim := range []string{"n1", "n2", "n3"} {
		n := h.nodes[victim]
		n.inj.SetPartitioned(true)
		start := time.Now()
		sig, _, err := readSig(h.ada, matrixLogical, -1, nil)
		elapsed := time.Since(start)
		if err != nil {
			t.Fatalf("partition %s: read failed: %v", victim, err)
		}
		if sig != want {
			t.Fatalf("partition %s: read diverged: %s vs %s", victim, sig, want)
		}
		if elapsed > failoverBound {
			t.Fatalf("partition %s: read took %v, deadline failover is broken (> %v)", victim, elapsed, failoverBound)
		}
		recordMatrix(t, "partition-read", victim, "whole-stream", "identical", elapsed)
		n.inj.SetPartitioned(false)
		if err := h.c.Probe(victim); err != nil {
			t.Fatalf("probe after healing %s: %v", victim, err)
		}
	}
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}
