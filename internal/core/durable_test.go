package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/metrics"
	"repro/internal/placement"
	"repro/internal/plfs"
	"repro/internal/vfs"
	"repro/internal/xtc"
)

// durableDroppings are the droppings a committed coarse-granularity dataset
// holds; crash and resume tests compare each byte-for-byte against a clean
// ingest.
var durableDroppings = []string{
	"subset.p", "subset.m", "index.p", "index.m",
	"structure.pdb", "labels.json", "manifest.json",
}

// crashIngest runs one ingest attempt with the injector's faults applied to
// both backends and returns the raw (fault-free) backends for post-crash
// inspection. The ingest error, if any, is deliberately discarded: a fired
// kill rule is the simulated crash, and even the rollback inside Ingest's
// error path fails through the dead file system, exactly like a real crash.
func crashIngest(t *testing.T, in *faultfs.Injector, opts Options, pdbBytes, traj []byte) (*vfs.MemFS, *vfs.MemFS) {
	t.Helper()
	ssd, hdd := vfs.NewMemFS(), vfs.NewMemFS()
	store, err := plfs.New(
		plfs.Backend{Name: "ssd", FS: faultfs.Wrap(ssd, in), Mount: "/mnt1"},
		plfs.Backend{Name: "hdd", FS: faultfs.Wrap(hdd, in), Mount: "/mnt2"},
	)
	if err != nil {
		return ssd, hdd // the kill landed inside store construction
	}
	opts.Metrics = metrics.NewRegistry()
	a := New(store, nil, opts)
	a.Ingest("/ds", pdbBytes, bytes.NewReader(traj))
	return ssd, hdd
}

// rebootADA rebuilds the storage stack over the raw backends, the way a
// process restart after a crash would.
func rebootADA(t *testing.T, ssd, hdd *vfs.MemFS) *ADA {
	t.Helper()
	store, err := plfs.New(
		plfs.Backend{Name: "ssd", FS: ssd, Mount: "/mnt1"},
		plfs.Backend{Name: "hdd", FS: hdd, Mount: "/mnt2"},
	)
	if err != nil {
		t.Fatal(err)
	}
	return New(store, nil, Options{Metrics: metrics.NewRegistry()})
}

// countOps measures how many backend operations one clean ingest performs,
// using a rule that can never fire so the injector only observes.
func countOps(t *testing.T, opts Options, pdbBytes, traj []byte) int64 {
	t.Helper()
	probe := faultfs.MustNew(1, faultfs.Rule{Kind: faultfs.KindErr, Op: "no-such-op", Nth: 1})
	crashIngest(t, probe, opts, pdbBytes, traj)
	total := probe.Ops()
	if total < 20 {
		t.Fatalf("probe ingest saw only %d backend ops", total)
	}
	return total
}

// crashState returns the rebooted stack and journal of the first kill point
// of an ingest whose surviving journal satisfies want, sweeping the kill
// points forwards, or backwards from the last (where the commit is) when
// fromEnd is set.
func crashState(t *testing.T, opts Options, pdbBytes, traj []byte, fromEnd bool, want func(recs []journalRecord) bool) (*ADA, []journalRecord) {
	t.Helper()
	ssd, hdd, recs := crashBackends(t, opts, pdbBytes, traj, fromEnd, want)
	return rebootADA(t, ssd, hdd), recs
}

// crashBackends is crashState before the reboot: the raw backends as the
// kill left them.
func crashBackends(t *testing.T, opts Options, pdbBytes, traj []byte, fromEnd bool, want func(recs []journalRecord) bool) (*vfs.MemFS, *vfs.MemFS, []journalRecord) {
	t.Helper()
	total := countOps(t, opts, pdbBytes, traj)
	for i := int64(1); i <= total; i++ {
		n := i
		if fromEnd {
			n = total + 1 - i
		}
		in := faultfs.MustNew(1, faultfs.Rule{Kind: faultfs.KindKill, Nth: int(n)})
		ssd, hdd := crashIngest(t, in, opts, pdbBytes, traj)
		a := rebootADA(t, ssd, hdd)
		if recs, err := a.readJournal("/ds"); err == nil && len(recs) > 0 && want(recs) {
			return ssd, hdd, recs
		}
	}
	t.Fatalf("none of %d kill points left the wanted journal", total)
	return nil, nil, nil
}

// endsIn matches a journal whose last record has the given type.
func endsIn(typ string) func([]journalRecord) bool {
	return func(recs []journalRecord) bool { return recs[len(recs)-1].Type == typ }
}

// goldenDroppings ingests the dataset cleanly and returns the reference
// stack with every durable dropping's bytes.
func goldenDroppings(t *testing.T, pdbBytes, traj []byte) (*ADA, map[string][]byte) {
	t.Helper()
	golden, _, _ := newADA(t, nil, Options{Metrics: metrics.NewRegistry()})
	if _, err := golden.Ingest("/ds", pdbBytes, bytes.NewReader(traj)); err != nil {
		t.Fatal(err)
	}
	goldenBytes := map[string][]byte{}
	for _, name := range durableDroppings {
		data, err := golden.readDropping("/ds", name)
		if err != nil {
			t.Fatal(err)
		}
		goldenBytes[name] = data
	}
	return golden, goldenBytes
}

// assertGolden requires the committed container to match the clean one-shot
// ingest byte for byte, with no journal, staging or live leftovers. what
// names the case in failure messages.
func assertGolden(t *testing.T, a *ADA, goldenBytes map[string][]byte, what string) {
	t.Helper()
	for name, want := range goldenBytes {
		got, err := a.readDropping("/ds", name)
		if err != nil {
			t.Fatalf("%s: read %s: %v", what, name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: %s differs from one-shot ingest", what, name)
		}
	}
	idx, err := a.containers.Index("/ds")
	if err != nil {
		t.Fatalf("%s: index: %v", what, err)
	}
	for _, d := range idx {
		if d.Name == droppingJournal || strings.HasPrefix(d.Name, stagingPrefix) ||
			d.Name == liveHeadName || strings.HasPrefix(d.Name, liveIndexPrefix) {
			t.Fatalf("%s: leftover %s survived", what, d.Name)
		}
	}
}

func readSubsetFrames(t *testing.T, a *ADA, logical, tag string) []*xtc.Frame {
	t.Helper()
	sr, err := a.OpenSubset(logical, tag)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	var out []*xtc.Frame
	for {
		f, err := sr.ReadFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, f)
	}
	return out
}

// sameFrames reports exact (bitwise) equality — failover must serve the
// byte-identical replica, so even float equality is strict here.
func sameFrames(a, b []*xtc.Frame) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Step != b[i].Step || len(a[i].Coords) != len(b[i].Coords) {
			return false
		}
		for j := range a[i].Coords {
			if a[i].Coords[j] != b[i].Coords[j] {
				return false
			}
		}
	}
	return true
}

// TestCrashMatrix sweeps a kill-after-Nth-op fault across every backend
// operation of an ingest. After each simulated crash the stack is rebuilt
// over the surviving bytes and recovered; the invariant is that the
// container is then either absent or byte-identical to a clean ingest —
// never torn.
func TestCrashMatrix(t *testing.T) {
	pdbBytes, traj, _ := testDataset(t, 200, 3)

	golden, goldenBytes := goldenDroppings(t, pdbBytes, traj)
	goldenFrames := readSubsetFrames(t, golden, "/ds", TagProtein)

	total := countOps(t, Options{}, pdbBytes, traj)
	var committed, rolledBack int
	for n := int64(1); n <= total; n++ {
		in := faultfs.MustNew(1, faultfs.Rule{Kind: faultfs.KindKill, Nth: int(n)})
		ssd, hdd := crashIngest(t, in, Options{}, pdbBytes, traj)
		a := rebootADA(t, ssd, hdd)
		if _, err := a.Recover(); err != nil {
			t.Fatalf("kill %d/%d: recover: %v", n, total, err)
		}

		if _, err := a.Manifest("/ds"); err != nil {
			// Not readable => recovery must have rolled the container back
			// entirely; nothing may linger on either backend.
			names, lerr := a.Datasets()
			if lerr != nil {
				t.Fatalf("kill %d/%d: list after rollback: %v", n, total, lerr)
			}
			if len(names) != 0 {
				t.Fatalf("kill %d/%d: manifest unreadable but containers remain: %v", n, total, names)
			}
			rolledBack++
			continue
		}
		committed++

		// Committed: every dropping byte-identical to the clean ingest, no
		// ingest leftovers, and the tagged reads fully served.
		assertGolden(t, a, goldenBytes, fmt.Sprintf("kill %d/%d", n, total))
		if got := readSubsetFrames(t, a, "/ds", TagProtein); !sameFrames(got, goldenFrames) {
			t.Fatalf("kill %d/%d: recovered protein subset reads differ", n, total)
		}
	}
	// The sweep must exercise both recovery outcomes: early kills roll
	// back, kills inside the commit window replay to completion.
	if rolledBack == 0 || committed == 0 {
		t.Fatalf("sweep over %d kill points: %d rollbacks, %d commits — both must occur",
			total, rolledBack, committed)
	}
	t.Logf("crash matrix: %d kill points, %d rolled back, %d committed", total, rolledBack, committed)
}

// TestIngestOpsIndependentOfDecodeConfig: the decode-ahead pool's size and
// batch size decide only who decodes a frame, never what the backends see.
// At every configuration an ingest issues the same number of backend ops
// (so the crash matrix sweeps the same kill points), journals the same
// records — read from the last crash state that still has its journal — and
// commits the golden bytes. The journal's checkpoints are frame-exact: each
// one's compressed counter is the summed encoded size of the frames it
// covers, not however far the decoder's read-ahead had pulled from the
// source when it was taken.
func TestIngestOpsIndependentOfDecodeConfig(t *testing.T) {
	frames := 2*journalCkptEvery + 8 // two checkpoints, and two decode batches at the largest size
	pdbBytes, traj, _ := testDataset(t, 100, frames)
	_, goldenBytes := goldenDroppings(t, pdbBytes, traj)
	var wantOps int64
	var wantJournal []journalRecord
	for _, workers := range []int{1, 2, 8} {
		for _, batchBytes := range []int{1, 256 << 10, 1 << 30} {
			what := fmt.Sprintf("workers=%d batch=%d", workers, batchBytes)
			opts := Options{DecodeWorkers: workers, DecodeBatchBytes: batchBytes}
			ops := countOps(t, opts, pdbBytes, traj)
			a, journal := crashState(t, opts, pdbBytes, traj, true, endsIn(journalCommit))
			if _, err := a.Recover(); err != nil {
				t.Fatal(err)
			}
			assertGolden(t, a, goldenBytes, what)
			if wantJournal == nil {
				wantOps, wantJournal = ops, journal
				continue
			}
			if ops != wantOps {
				t.Errorf("%s: %d backend ops, want %d", what, ops, wantOps)
			}
			if !reflect.DeepEqual(journal, wantJournal) {
				t.Errorf("%s: journal records differ", what)
			}
		}
	}
	var encoded int64
	var ckpts int
	for i, blob := range splitFrames(t, traj) {
		encoded += int64(len(blob))
		if (i+1)%journalCkptEvery == 0 {
			ckpts++
			if ck := wantJournal[ckpts]; ck.Type != journalCkpt || ck.Frames != i+1 || ck.Compressed != encoded {
				t.Errorf("journal record %d is %s frames=%d compressed=%d, want the checkpoint at frame %d with compressed=%d",
					ckpts, ck.Type, ck.Frames, ck.Compressed, i+1, encoded)
			}
		}
	}
}

// TestDecodeErrorLeavesExactPrefix: a source that goes bad at frame k fails
// the frame loop naming k, with exactly frames 0..k-1 written to every
// subset — nothing decoded ahead of k leaks in, nothing before it is lost —
// so the journal's last checkpoint plus the staged bytes are a valid resume
// point. It runs through ResumeIngest, which (unlike Ingest) leaves the
// container in place on failure, and then resumes it to the golden bytes.
func TestDecodeErrorLeavesExactPrefix(t *testing.T) {
	const k = journalCkptEvery + 5
	pdbBytes, traj, _ := testDataset(t, 200, k+3)
	_, goldenBytes := goldenDroppings(t, pdbBytes, traj)
	bad := append([]byte(nil), traj...)
	off := 0
	for _, blob := range splitFrames(t, traj)[:k] {
		off += len(blob)
	}
	bad[off] ^= 0xff // frame k's magic number

	crashed, _ := crashState(t, Options{}, pdbBytes, traj, false, endsIn(journalBegin))
	for _, workers := range []int{1, 4} {
		a := New(crashed.containers, nil, Options{Metrics: metrics.NewRegistry(), DecodeWorkers: workers, DecodeBatchBytes: 1 << 30})
		_, err := a.ResumeIngest("/ds", pdbBytes, bytes.NewReader(bad))
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("frame %d:", k)) || !errors.Is(err, xtc.ErrBadMagic) {
			t.Fatalf("workers=%d: err = %v, want a bad magic number at frame %d", workers, err, k)
		}
		for _, tag := range []string{TagProtein, TagMisc} {
			data, err := a.readDropping("/ds", stagingPrefix+subsetPrefix+tag)
			if err != nil {
				t.Fatal(err)
			}
			if n := len(splitFrames(t, data)); n != k {
				t.Errorf("workers=%d: staged subset %s holds %d frames, want exactly %d", workers, tag, n, k)
			}
		}
		recs, err := a.readJournal("/ds")
		if err != nil {
			t.Fatal(err)
		}
		if last := recs[len(recs)-1]; last.Type != journalCkpt || last.Frames != journalCkptEvery {
			t.Errorf("workers=%d: journal ends in %s at frame %d, want the checkpoint at %d",
				workers, last.Type, last.Frames, journalCkptEvery)
		}
	}
	if _, err := crashed.ResumeIngest("/ds", pdbBytes, bytes.NewReader(traj)); err != nil {
		t.Fatal(err)
	}
	assertGolden(t, crashed, goldenBytes, "failed then good resume")
}

// TestRecoverActions checks each recovery classification directly.
func TestRecoverActions(t *testing.T) {
	pdbBytes, traj, _ := testDataset(t, 200, 3)
	a, _, _ := newADA(t, nil, Options{Metrics: metrics.NewRegistry()})
	if _, err := a.Ingest("/ds", pdbBytes, bytes.NewReader(traj)); err != nil {
		t.Fatal(err)
	}

	// A committed dataset is untouched.
	acts, err := a.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if acts["/ds"] != RecoveryClean {
		t.Errorf("clean dataset recovered as %q", acts["/ds"])
	}

	// A leftover journal beside a committed manifest is swept.
	if err := a.writeDropping("/ds", droppingJournal, a.containers.Backends()[0], []byte("{}\n")); err != nil {
		t.Fatal(err)
	}
	act, err := a.RecoverDataset("/ds")
	if err != nil {
		t.Fatal(err)
	}
	if act != RecoverySwept {
		t.Errorf("leftover journal recovered as %q, want swept", act)
	}
	if _, err := a.containers.StatDropping("/ds", droppingJournal); err == nil {
		t.Error("journal survived the sweep")
	}

	// A journaled commit record is replayed: the staged dropping renamed,
	// the manifest republished, the journal retired.
	m, err := a.Manifest("/ds")
	if err != nil {
		t.Fatal(err)
	}
	j, err := a.openJournal("/ds")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.append(&journalRecord{Type: journalBegin, Logical: "/ds", NAtoms: m.NAtoms}); err != nil {
		t.Fatal(err)
	}
	rec := &journalRecord{Type: journalCommit, Staged: []string{subsetPrefix + TagMisc}, Manifest: m}
	if err := j.append(rec); err != nil {
		t.Fatal(err)
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	if err := a.containers.RenameDropping("/ds", subsetPrefix+TagMisc, stagingPrefix+subsetPrefix+TagMisc); err != nil {
		t.Fatal(err)
	}
	if err := a.containers.RemoveDropping("/ds", droppingManifest); err != nil {
		t.Fatal(err)
	}
	act, err = a.RecoverDataset("/ds")
	if err != nil {
		t.Fatal(err)
	}
	if act != RecoveryCommitted {
		t.Errorf("interrupted commit recovered as %q, want committed", act)
	}
	if _, err := a.Manifest("/ds"); err != nil {
		t.Errorf("manifest not republished: %v", err)
	}
	if _, err := a.containers.StatDropping("/ds", subsetPrefix+TagMisc); err != nil {
		t.Errorf("staged dropping not renamed: %v", err)
	}
	if _, err := a.containers.StatDropping("/ds", droppingJournal); err == nil {
		t.Error("journal survived the replay")
	}
	if got := readSubsetFrames(t, a, "/ds", TagMisc); len(got) != 3 {
		t.Errorf("replayed subset serves %d frames, want 3", len(got))
	}

	// A begin-only journal (the ingest died before commit) rolls back.
	if err := a.containers.CreateContainer("/torn"); err != nil {
		t.Fatal(err)
	}
	j2, err := a.openJournal("/torn")
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.append(&journalRecord{Type: journalBegin, Logical: "/torn"}); err != nil {
		t.Fatal(err)
	}
	if err := j2.close(); err != nil {
		t.Fatal(err)
	}
	acts, err = a.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if acts["/torn"] != RecoveryRolledBack || acts["/ds"] != RecoveryClean {
		t.Errorf("recover actions = %v", acts)
	}
	names, err := a.Datasets()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "/ds" {
		t.Errorf("datasets after rollback = %v", names)
	}
}

// TestResumeIngestFromCheckpoint crashes an ingest after its first journal
// checkpoint, then resumes it against the same inputs and requires the
// result to be byte-identical to an uninterrupted ingest.
func TestResumeIngestFromCheckpoint(t *testing.T) {
	frames := journalCkptEvery + 8
	pdbBytes, traj, _ := testDataset(t, 200, frames)
	_, goldenBytes := goldenDroppings(t, pdbBytes, traj)

	// The first kill point whose crash state is a journal ending in a
	// checkpoint: the frame loop past frame journalCkptEvery.
	a, recs := crashState(t, Options{}, pdbBytes, traj, false, endsIn(journalCkpt))
	if ckFrames := recs[len(recs)-1].Frames; ckFrames != journalCkptEvery {
		t.Fatalf("crash state checkpoint at frame %d, want %d", ckFrames, journalCkptEvery)
	}

	// A mismatched structure file is rejected before anything is touched.
	wrongPDB, _, _ := testDataset(t, 400, 1)
	if _, err := a.ResumeIngest("/ds", wrongPDB, bytes.NewReader(traj)); err == nil {
		t.Fatal("resume with a mismatched structure file should fail")
	}

	rep, err := a.ResumeIngest("/ds", pdbBytes, bytes.NewReader(traj))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Frames != frames {
		t.Errorf("resumed report frames = %d, want %d", rep.Frames, frames)
	}
	assertGolden(t, a, goldenBytes, "resumed dataset")
	res, err := a.Fsck("/ds")
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Errorf("resumed dataset fails fsck: %+v", res.Verdicts)
	}
}

// handleFS counts the file handles a stack opens and closes through it.
type handleFS struct {
	vfs.FS
	opened, closed *atomic.Int64
}

type countedFile struct {
	vfs.File
	closed *atomic.Int64
}

func (h handleFS) counted(f vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	h.opened.Add(1)
	return &countedFile{File: f, closed: h.closed}, nil
}

func (h handleFS) Create(name string) (vfs.File, error) { return h.counted(h.FS.Create(name)) }
func (h handleFS) Open(name string) (vfs.File, error)   { return h.counted(h.FS.Open(name)) }

func (f *countedFile) Close() error {
	f.closed.Add(1)
	return f.File.Close()
}

// TestResumeIngestFailureClosesHandles resumes the crash state of
// TestResumeIngestFromCheckpoint against sources that cannot finish it — one
// ends before the checkpoint's frames are skipped, one tears a frame after
// them — and requires every handle the failed resume opened, the rewritten
// journal's included, to be closed again, with the container still
// resumable to the golden bytes.
func TestResumeIngestFailureClosesHandles(t *testing.T) {
	frames := journalCkptEvery + 8
	pdbBytes, traj, _ := testDataset(t, 200, frames)
	_, goldenBytes := goldenDroppings(t, pdbBytes, traj)
	ssd, hdd, _ := crashBackends(t, Options{}, pdbBytes, traj, false, endsIn(journalCkpt))

	var opened, closed atomic.Int64
	store, err := plfs.New(
		plfs.Backend{Name: "ssd", FS: handleFS{ssd, &opened, &closed}, Mount: "/mnt1"},
		plfs.Backend{Name: "hdd", FS: handleFS{hdd, &opened, &closed}, Mount: "/mnt2"},
	)
	if err != nil {
		t.Fatal(err)
	}
	a := New(store, nil, Options{Metrics: metrics.NewRegistry()})
	for what, short := range map[string][]byte{
		"source shorter than the checkpoint": traj[:len(traj)/4],
		"frame torn after the checkpoint":    traj[:len(traj)-5],
	} {
		if _, err := a.ResumeIngest("/ds", pdbBytes, bytes.NewReader(short)); err == nil {
			t.Fatalf("%s: resume succeeded", what)
		}
		if o, c := opened.Load(), closed.Load(); o == 0 || o != c {
			t.Errorf("%s: failed resume opened %d handles, closed %d", what, o, c)
		}
	}
	if _, err := a.ResumeIngest("/ds", pdbBytes, bytes.NewReader(traj)); err != nil {
		t.Fatal(err)
	}
	assertGolden(t, a, goldenBytes, "resumed after failed resumes")
}

// TestResumeIngestFromZero resumes an ingest that died before its first
// checkpoint: everything restarts from frame zero under the same journal
// identity and still commits byte-identically.
func TestResumeIngestFromZero(t *testing.T) {
	pdbBytes, traj, _ := testDataset(t, 200, 5) // < journalCkptEvery: no checkpoint ever lands
	golden, goldenBytes := goldenDroppings(t, pdbBytes, traj)

	// A committed dataset has no journal, so there is nothing to resume.
	if _, err := golden.ResumeIngest("/ds", pdbBytes, bytes.NewReader(traj)); err == nil {
		t.Fatal("resume of a committed dataset should fail")
	}

	a, _ := crashState(t, Options{}, pdbBytes, traj, false, endsIn(journalBegin))
	rep, err := a.ResumeIngest("/ds", pdbBytes, bytes.NewReader(traj))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Frames != 5 {
		t.Errorf("resumed report frames = %d, want 5", rep.Frames)
	}
	assertGolden(t, a, goldenBytes, "resumed dataset")
}

// newMirroredADA builds what a single node that wants a local mirror runs:
// an R=2 placement cluster over its two mounts as the one plfs backend, so
// every dropping exists twice. It returns the mounts holding the primary and
// the mirror copy of /ds's droppings.
func newMirroredADA(t *testing.T, reg *metrics.Registry) (a *ADA, c *placement.Cluster, primary, mirror *vfs.MemFS) {
	t.Helper()
	mounts := map[string]*vfs.MemFS{"m1": vfs.NewMemFS(), "m2": vfs.NewMemFS()}
	tbl := &placement.Table{Version: 1, Replication: 2, Nodes: []placement.Node{{Name: "m1"}, {Name: "m2"}}}
	c, err := placement.NewCluster(tbl, map[string]vfs.FS{"m1": mounts["m1"], "m2": mounts["m2"]},
		placement.Config{HedgeDelay: -1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	store, err := plfs.New(plfs.Backend{Name: "mirrored", FS: c, Mount: "/mnt"})
	if err != nil {
		t.Fatal(err)
	}
	reps := tbl.Place("/mnt/ds/subset.p")
	return New(store, nil, Options{Metrics: reg}), c, mounts[reps[0]], mounts[reps[1]]
}

// assertAllUp fails if the cluster down-marked a node: a bad or missing copy
// is not a dead node.
func assertAllUp(t *testing.T, c *placement.Cluster) {
	t.Helper()
	for node, up := range c.Health() {
		if !up {
			t.Errorf("node %s marked down by a bad copy", node)
		}
	}
}

// TestReplicaFailover ingests onto a mirrored backend, corrupts the primary
// copy of the active subset, and requires reads to be served byte-identically
// from the mirror with the failover counted; with every copy corrupted the
// read must surface vfs.ErrCorrupted.
func TestReplicaFailover(t *testing.T) {
	pdbBytes, traj, _ := testDataset(t, 200, 5)
	reg := metrics.NewRegistry()
	a, c, primary, mirror := newMirroredADA(t, reg)
	if _, err := a.Ingest("/ds", pdbBytes, bytes.NewReader(traj)); err != nil {
		t.Fatal(err)
	}

	prim, err := vfs.ReadFile(primary, "/mnt/ds/subset.p")
	if err != nil {
		t.Fatal(err)
	}
	repl, err := vfs.ReadFile(mirror, "/mnt/ds/subset.p")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(prim, repl) {
		t.Fatal("mirror is not byte-identical to the primary")
	}

	golden := readSubsetFrames(t, a, "/ds", TagProtein)
	if len(golden) != 5 {
		t.Fatalf("clean read returns %d frames", len(golden))
	}
	if snap := reg.Snapshot(); snap.Counters["core.verify.frames"] < 5 {
		t.Errorf("verify.frames = %d after a clean verified read", snap.Counters["core.verify.frames"])
	}

	// Flip one byte in the middle of the primary: a silent bit rot.
	bad := append([]byte(nil), prim...)
	bad[len(bad)/2] ^= 0xff
	if err := vfs.WriteFile(primary, "/mnt/ds/subset.p", bad); err != nil {
		t.Fatal(err)
	}
	got := readSubsetFrames(t, a, "/ds", TagProtein)
	if !sameFrames(got, golden) {
		t.Fatal("failover read differs from the clean read")
	}
	snap := reg.Snapshot()
	if snap.Counters["core.verify.corrupted"] == 0 {
		t.Error("corruption not counted under core.verify.corrupted")
	}
	if snap.Counters["placement.failover.reads"] == 0 {
		t.Error("failover not counted under placement.failover.reads")
	}
	assertAllUp(t, c)

	// Random access fails over the same way.
	rr, err := a.OpenSubsetAt("/ds", TagProtein)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rr.Frames(); i++ {
		f, err := rr.ReadFrameAt(i)
		if err != nil {
			t.Fatalf("random frame %d: %v", i, err)
		}
		if f.Step != golden[i].Step {
			t.Fatalf("random frame %d step = %d, want %d", i, f.Step, golden[i].Step)
		}
	}
	rr.Close()

	// Corrupt the mirror identically: now no copy verifies and the read
	// must surface a typed corruption error, having checked both.
	badRepl := append([]byte(nil), repl...)
	badRepl[len(badRepl)/2] ^= 0xff
	if err := vfs.WriteFile(mirror, "/mnt/ds/subset.p", badRepl); err != nil {
		t.Fatal(err)
	}
	before := reg.Snapshot().Counters["core.verify.corrupted"]
	sr, err := a.OpenSubset("/ds", TagProtein)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	var readErr error
	for {
		if _, readErr = sr.ReadFrame(); readErr != nil {
			break
		}
	}
	if readErr == io.EOF || !errors.Is(readErr, vfs.ErrCorrupted) {
		t.Fatalf("read with every copy corrupted = %v, want vfs.ErrCorrupted", readErr)
	}
	if n := reg.Snapshot().Counters["core.verify.corrupted"] - before; n != 2 {
		t.Errorf("exhausted failover checked %d bad copies, want both", n)
	}
}

// TestFailoverPrimaryMissing serves a subset whose primary payload (and
// index) are gone entirely — a wiped mount.
func TestFailoverPrimaryMissing(t *testing.T) {
	pdbBytes, traj, _ := testDataset(t, 200, 4)
	a, c, primary, _ := newMirroredADA(t, metrics.NewRegistry())
	if _, err := a.Ingest("/ds", pdbBytes, bytes.NewReader(traj)); err != nil {
		t.Fatal(err)
	}
	golden := readSubsetFrames(t, a, "/ds", TagProtein)

	if err := primary.Remove("/mnt/ds/subset.p"); err != nil {
		t.Fatal(err)
	}
	if err := primary.Remove("/mnt/ds/index.p"); err != nil {
		t.Fatal(err)
	}
	got := readSubsetFrames(t, a, "/ds", TagProtein)
	if !sameFrames(got, golden) {
		t.Fatal("reads with the primary gone differ from the clean read")
	}
	assertAllUp(t, c)
}

// TestFsckVerdicts drives every verdict class through one dataset.
func TestFsckVerdicts(t *testing.T) {
	pdbBytes, traj, _ := testDataset(t, 200, 3)
	a, _, hdd := newADA(t, nil, Options{Metrics: metrics.NewRegistry()})
	if _, err := a.Ingest("/ds", pdbBytes, bytes.NewReader(traj)); err != nil {
		t.Fatal(err)
	}

	res, err := a.Fsck("/ds")
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() || res.Corrupt != 0 || res.Missing != 0 {
		t.Fatalf("clean dataset fsck = %+v", res)
	}

	// Corrupt the bulk subset payload.
	data, err := vfs.ReadFile(hdd, "/mnt2/ds/subset.m")
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := vfs.WriteFile(hdd, "/mnt2/ds/subset.m", data); err != nil {
		t.Fatal(err)
	}
	// And remove a checksummed metadata dropping from under the manifest.
	if err := a.containers.RemoveDropping("/ds", droppingLabels); err != nil {
		t.Fatal(err)
	}
	res, err = a.Fsck("/ds")
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() || res.Corrupt != 1 || res.Missing != 1 {
		t.Fatalf("damaged dataset fsck = corrupt %d, missing %d", res.Corrupt, res.Missing)
	}
	var sawFrameDetail bool
	for _, v := range res.Verdicts {
		if v.Name == subsetPrefix+TagMisc && v.Status == VerdictCorrupt &&
			bytes.Contains([]byte(v.Detail), []byte("frame")) {
			sawFrameDetail = true
		}
	}
	if !sawFrameDetail {
		t.Errorf("corrupt subset verdict does not localize the bad frame: %+v", res.Verdicts)
	}

	// A torn container (journal, staging droppings, no manifest) is all
	// uncommitted.
	if err := a.containers.CreateContainer("/torn"); err != nil {
		t.Fatal(err)
	}
	if err := a.writeDropping("/torn", droppingJournal, "ssd", []byte(`{"type":"begin"}`+"\n")); err != nil {
		t.Fatal(err)
	}
	if err := a.writeDropping("/torn", stagingPrefix+subsetPrefix+TagProtein, "ssd", []byte("half")); err != nil {
		t.Fatal(err)
	}
	res, err = a.Fsck("/torn")
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed {
		t.Error("torn container reported as committed")
	}
	for _, v := range res.Verdicts {
		if v.Status != VerdictUncommitted {
			t.Errorf("torn container verdict %s = %q, want uncommitted", v.Name, v.Status)
		}
	}
}

// TestScrubber sweeps all datasets, reporting and counting the damage.
func TestScrubber(t *testing.T) {
	pdbBytes, traj, _ := testDataset(t, 200, 3)
	reg := metrics.NewRegistry()
	a, ssd, _ := newADA(t, nil, Options{Metrics: reg})
	if _, err := a.Ingest("/clean", pdbBytes, bytes.NewReader(traj)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Ingest("/rotten", pdbBytes, bytes.NewReader(traj)); err != nil {
		t.Fatal(err)
	}
	data, err := vfs.ReadFile(ssd, "/mnt1/rotten/subset.p")
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0x80
	if err := vfs.WriteFile(ssd, "/mnt1/rotten/subset.p", data); err != nil {
		t.Fatal(err)
	}

	rep, err := a.NewScrubber(0).Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Datasets != 2 || rep.Bytes == 0 {
		t.Errorf("scrub report = %+v", rep)
	}
	if len(rep.Corrupt) != 1 || rep.Corrupt[0].Name != subsetPrefix+TagProtein {
		t.Errorf("scrub corrupt list = %+v", rep.Corrupt)
	}
	snap := reg.Snapshot()
	if snap.Counters["core.scrub.passes"] != 1 || snap.Counters["core.scrub.corrupted"] != 1 {
		t.Errorf("scrub counters: passes %d, corrupted %d",
			snap.Counters["core.scrub.passes"], snap.Counters["core.scrub.corrupted"])
	}

	// A heavily throttled background scrub must still stop promptly: Stop
	// cancels the mid-pass rate-limit sleep.
	s := a.NewScrubber(1) // 1 B/s: a full pass would nominally take hours
	s.Start(time.Hour)
	done := make(chan struct{})
	go func() {
		s.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop did not cancel a throttled scrub pass")
	}
}

// TestChecksumsRecorded pins down what an ingest with checksums persists.
func TestChecksumsRecorded(t *testing.T) {
	pdbBytes, traj, _ := testDataset(t, 200, 3)
	a, _, _ := newADA(t, nil, Options{Metrics: metrics.NewRegistry()})
	if _, err := a.Ingest("/ds", pdbBytes, bytes.NewReader(traj)); err != nil {
		t.Fatal(err)
	}
	m, err := a.Manifest("/ds")
	if err != nil {
		t.Fatal(err)
	}
	for _, tag := range m.Tags() {
		if m.Subsets[tag].CRC32C == 0 {
			t.Errorf("subset %s has no stream checksum", tag)
		}
	}
	for _, name := range []string{"index.p", "index.m", "structure.pdb", "labels.json"} {
		want, ok := m.Checksums[name]
		if !ok {
			t.Errorf("manifest integrity map lacks %s", name)
			continue
		}
		data, err := a.readDropping("/ds", name)
		if err != nil {
			t.Fatal(err)
		}
		if got := xtc.CRC32C(data); got != want {
			t.Errorf("%s stored CRC %08x, manifest says %08x", name, got, want)
		}
	}
	idxBytes, err := a.readDropping("/ds", indexPrefix+TagProtein)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := xtc.UnmarshalIndex(idxBytes)
	if err != nil {
		t.Fatal(err)
	}
	if !idx.HasChecksums() {
		t.Error("persisted index carries no per-frame checksums")
	}
}

// TestDisableChecksums covers the benchmark escape hatch: no checksums
// anywhere, reads fall back to the unverified path, fsck reports the
// subsets as unverified rather than corrupt.
func TestDisableChecksums(t *testing.T) {
	pdbBytes, traj, _ := testDataset(t, 200, 3)
	a, _, _ := newADA(t, nil, Options{DisableChecksums: true, Metrics: metrics.NewRegistry()})
	if _, err := a.Ingest("/ds", pdbBytes, bytes.NewReader(traj)); err != nil {
		t.Fatal(err)
	}
	m, err := a.Manifest("/ds")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Checksums) != 0 {
		t.Errorf("checksums recorded despite DisableChecksums: %v", m.Checksums)
	}
	if m.Subsets[TagProtein].CRC32C != 0 {
		t.Error("subset stream checksum recorded despite DisableChecksums")
	}
	if got := readSubsetFrames(t, a, "/ds", TagProtein); len(got) != 3 {
		t.Errorf("unverified read returns %d frames, want 3", len(got))
	}
	res, err := a.Fsck("/ds")
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Errorf("checksum-free dataset fails fsck: %+v", res.Verdicts)
	}
	var unverified int
	for _, v := range res.Verdicts {
		if v.Status == VerdictUnverified {
			unverified++
		}
	}
	if unverified == 0 {
		t.Error("fsck reports nothing unverified on a checksum-free dataset")
	}
}
