package placement

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/metrics"
	"repro/internal/vfs"
)

// downFS is a node whose process is gone: every operation fails with
// vfs.ErrBackendDown, like an RPC client with exhausted retries.
type downFS struct{}

func (downFS) Create(string) (vfs.File, error)        { return nil, vfs.ErrBackendDown }
func (downFS) Open(string) (vfs.File, error)          { return nil, vfs.ErrBackendDown }
func (downFS) Stat(string) (vfs.FileInfo, error)      { return vfs.FileInfo{}, vfs.ErrBackendDown }
func (downFS) ReadDir(string) ([]vfs.FileInfo, error) { return nil, vfs.ErrBackendDown }
func (downFS) MkdirAll(string) error                  { return vfs.ErrBackendDown }
func (downFS) Remove(string) error                    { return vfs.ErrBackendDown }
func (downFS) Rename(string, string) error            { return vfs.ErrBackendDown }

// corruptFS serves reads that fail verification, standing in for a replica
// whose CRC check rejected the bytes.
type corruptFS struct{ vfs.FS }

func (c corruptFS) Open(name string) (vfs.File, error) {
	f, err := c.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return corruptFile{File: f}, nil
}

type corruptFile struct{ vfs.File }

func (f corruptFile) ReadAt(p []byte, off int64) (int, error) { return 0, vfs.ErrCorrupted }

// newTestCluster builds an R=2 cluster over three in-memory nodes.
func newTestCluster(t *testing.T, cfg Config) (*Cluster, map[string]*vfs.MemFS) {
	t.Helper()
	mems := map[string]*vfs.MemFS{
		"n1": vfs.NewMemFS(), "n2": vfs.NewMemFS(), "n3": vfs.NewMemFS(),
	}
	nodes := map[string]vfs.FS{}
	for name, m := range mems {
		nodes[name] = m
	}
	tbl := &Table{Version: 1, Replication: 2, Nodes: threeNodes()}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	c, err := NewCluster(tbl, nodes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, mems
}

// holders returns which in-memory nodes hold name.
func holders(mems map[string]*vfs.MemFS, name string) []string {
	var out []string
	for _, n := range []string{"n1", "n2", "n3"} {
		if vfs.Exists(mems[n], name) {
			out = append(out, n)
		}
	}
	return out
}

func TestClusterWriteLandsOnExactlyRReplicas(t *testing.T) {
	c, mems := newTestCluster(t, Config{})
	want := []byte("replicated bytes")
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("/c/set-%d/dropping", i)
		if err := vfs.WriteFile(c, name, want); err != nil {
			t.Fatal(err)
		}
		hold := holders(mems, name)
		if len(hold) != 2 {
			t.Fatalf("%s lives on %v, want exactly 2 replicas", name, hold)
		}
		reps := c.Table().Place(name)
		for _, h := range hold {
			if !contains(reps, h) {
				t.Fatalf("%s on %s, outside its replica set %v", name, h, reps)
			}
		}
		// Byte-identity on every replica.
		for _, h := range hold {
			got, err := vfs.ReadFile(mems[h], name)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("replica %s of %s diverged: %q, %v", h, name, got, err)
			}
		}
		got, err := vfs.ReadFile(c, name)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("cluster read of %s = %q, %v", name, got, err)
		}
	}
}

func TestClusterDegradedReadsWithNodeDown(t *testing.T) {
	reg := metrics.NewRegistry()
	c, _ := newTestCluster(t, Config{Metrics: reg})
	payloads := map[string][]byte{}
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("/c/set-%d/dropping", i)
		payloads[name] = []byte(fmt.Sprintf("payload-%d", i))
		if err := vfs.WriteFile(c, name, payloads[name]); err != nil {
			t.Fatal(err)
		}
	}
	// Kill each node in turn: every file keeps reading byte-identically
	// through its surviving replica.
	for _, victim := range []string{"n1", "n2", "n3"} {
		alive := c.Node(victim)
		c.AddNode(victim, downFS{})
		for name, want := range payloads {
			got, err := vfs.ReadFile(c, name)
			if err != nil {
				t.Fatalf("victim %s: read %s: %v", victim, name, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("victim %s: read %s = %q, want %q", victim, name, got, want)
			}
		}
		if h := c.Health(); h[victim] {
			t.Fatalf("victim %s not marked down after failovers", victim)
		}
		c.AddNode(victim, alive)
		if err := c.Probe(victim); err != nil {
			t.Fatalf("probe of revived %s: %v", victim, err)
		}
		if h := c.Health(); !h[victim] {
			t.Fatalf("revived %s still marked down", victim)
		}
	}
	if reg.Counter("placement.node.n1.down").Value() != 1 {
		t.Fatalf("down transitions for n1 = %d, want 1",
			reg.Counter("placement.node.n1.down").Value())
	}
}

func TestClusterFailoverOnCorruptedReplica(t *testing.T) {
	c, mems := newTestCluster(t, Config{})
	name := "/c/set-x/dropping"
	want := []byte("verified payload")
	if err := vfs.WriteFile(c, name, want); err != nil {
		t.Fatal(err)
	}
	primary := c.Table().Place(name)[0]
	c.AddNode(primary, corruptFS{FS: mems[primary]})
	got, err := vfs.ReadFile(c, name)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read with corrupted primary = %q, %v", got, err)
	}
	// A corrupted replica is an I/O-level failure, not a dead node: no
	// down mark.
	if h := c.Health(); !h[primary] {
		t.Fatalf("corruption marked %s down", primary)
	}
}

// TestClusterVerifiedReadFailsOverOnRejectedBytes: a copy whose bytes the
// caller's check rejects is a failed copy — the read moves to the mirror,
// counts the failover, leaves the node up; with every copy rejected the read
// is vfs.ErrCorrupted.
func TestClusterVerifiedReadFailsOverOnRejectedBytes(t *testing.T) {
	// Replicas are tried in turn, primary first.
	t.Run("sequential", func(t *testing.T) {
		reg := metrics.NewRegistry()
		c, mems := newTestCluster(t, Config{Metrics: reg})
		name := "/c/set-v/dropping"
		want := []byte("verified payload")
		if err := vfs.WriteFile(c, name, want); err != nil {
			t.Fatal(err)
		}
		reps := c.Table().Place(name)
		if err := vfs.WriteFile(mems[reps[0]], name, []byte("verified pAyload")); err != nil {
			t.Fatal(err)
		}
		f, err := c.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		asked := 0
		ok := func(p []byte) bool { asked++; return bytes.Equal(p, want) }
		got := make([]byte, len(want))
		if err := vfs.ReadAtVerified(f, got, 0, ok); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("verified read over a rotten primary = %q, %v", got, err)
		}
		if asked != 2 {
			t.Errorf("check ran %d times, want once per copy tried", asked)
		}
		if n := reg.Counter("placement.failover.reads").Value(); n != 1 {
			t.Errorf("placement.failover.reads = %d, want 1", n)
		}
		if h := c.Health(); !h[reps[0]] {
			t.Errorf("rejected bytes marked %s down", reps[0])
		}
		// The handle now prefers the copy that verified.
		if err := vfs.ReadAtVerified(f, got, 0, ok); err != nil || asked != 3 {
			t.Errorf("second read = %v after %d checks, want the good copy first", err, asked)
		}
		// A read past the copies' end is short on every one of them.
		if err := vfs.ReadAtVerified(f, make([]byte, len(want)+1), 0, ok); !errors.Is(err, vfs.ErrCorrupted) {
			t.Errorf("short verified read = %v, want vfs.ErrCorrupted", err)
		}
		if err := vfs.WriteFile(mems[reps[1]], name, []byte("verified paYload")); err != nil {
			t.Fatal(err)
		}
		if err := vfs.ReadAtVerified(f, got, 0, ok); !errors.Is(err, vfs.ErrCorrupted) {
			t.Errorf("verified read with every copy rotten = %v, want vfs.ErrCorrupted", err)
		}
	})
}

// failingFS hands out files whose reads start failing when fail is set — a
// disk that dies under an open handle.
type failingFS struct {
	vfs.FS
	fail *atomic.Bool
}

func (s failingFS) Open(name string) (vfs.File, error) {
	f, err := s.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return failingFile{File: f, fail: s.fail}, nil
}

type failingFile struct {
	vfs.File
	fail *atomic.Bool
}

func (f failingFile) ReadAt(p []byte, off int64) (int, error) {
	if f.fail.Load() {
		return 0, errors.New("input/output error")
	}
	return f.File.ReadAt(p, off)
}

// TestClusterReadHandleNeverMixesVersions replaces the file on the mirror,
// with content of another length, between Open and a read the failing
// preferred copy forces onto the mirror. Read the way vfs.ReadFile reads, the
// handle must give one whole version or an error, never the length of one
// version filled from the other.
func TestClusterReadHandleNeverMixesVersions(t *testing.T) {
	v1 := []byte("version one of the file")
	for _, v2 := range [][]byte{[]byte("v2, shorter"), []byte("version two of the file, and longer")} {
		t.Run(fmt.Sprintf("failover/%d-to-%d-bytes", len(v1), len(v2)), func(t *testing.T) {
			reg := metrics.NewRegistry()
			c, mems := newTestCluster(t, Config{Metrics: reg})
			name := "/c/set-m/dropping"
			if err := vfs.WriteFile(c, name, v1); err != nil {
				t.Fatal(err)
			}
			reps := c.Table().Place(name)
			var primaryDies atomic.Bool
			c.AddNode(reps[0], failingFS{FS: mems[reps[0]], fail: &primaryDies})
			f, err := c.Open(name)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if err := vfs.WriteFile(mems[reps[1]], name, v2); err != nil {
				t.Fatal(err)
			}
			primaryDies.Store(true)

			got := make([]byte, f.Size())
			_, err = io.ReadFull(f, got)
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				err = nil // vfs.ReadFile takes the short read as the file
			}
			if err == nil {
				t.Errorf("read %q with the opened copy dead and the mirror replaced, want an error", got)
			}
			if n := reg.Counter("placement.failover.reads").Value(); n < 1 {
				t.Errorf("placement.failover.reads = %d, want a failed copy counted", n)
			}
			if h := c.Health(); !h[reps[1]] {
				t.Errorf("holding another version marked %s down", reps[1])
			}
		})
	}
}

// stallFS hands out files whose ReadAt announces itself on entered, then
// blocks until released and fails the way an rpc read on a handle the node
// has already closed does.
type stallFS struct {
	vfs.FS
	entered chan<- struct{}
	release <-chan struct{}
	reads   *atomic.Int64
}

func (s stallFS) Open(name string) (vfs.File, error) {
	f, err := s.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return stallFile{File: f, fs: s}, nil
}

type stallFile struct {
	vfs.File
	fs stallFS
}

func (f stallFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.reads.Add(1)
	f.fs.entered <- struct{}{}
	<-f.fs.release
	return 0, errors.New("rpc: unknown handle 3")
}

// TestClusterReadLosingToCloseIsClosed: a read whose copy fails because
// Close ran under it is vfs.ErrClosed. It tries no other replica and counts
// no failover: no replica did anything wrong.
func TestClusterReadLosingToCloseIsClosed(t *testing.T) {
	reg := metrics.NewRegistry()
	c, mems := newTestCluster(t, Config{Metrics: reg})
	name := "/c/set-k/dropping"
	if err := vfs.WriteFile(c, name, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}, 2), make(chan struct{})
	var reads atomic.Int64
	for _, n := range c.Table().Place(name) {
		c.AddNode(n, stallFS{FS: mems[n], entered: entered, release: release, reads: &reads})
	}
	f, err := c.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := f.ReadAt(make([]byte, 7), 0)
		done <- err
	}()
	<-entered
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-done; !errors.Is(err, vfs.ErrClosed) || strings.Contains(err.Error(), "all replicas failed") {
		t.Errorf("read that lost to Close = %v, want vfs.ErrClosed", err)
	}
	if n := reads.Load(); n != 1 {
		t.Errorf("%d copies read, want the one Close ran under", n)
	}
	if n := reg.Counter("placement.failover.reads").Value(); n != 0 {
		t.Errorf("placement.failover.reads = %d, want 0", n)
	}
}

// parkFS hands out files whose first ReadAt announces itself on entered and
// waits for release before it reads, noting the result it got in parkedErr;
// closes counts the handles closed.
type parkFS struct {
	vfs.FS
	entered   chan<- struct{}
	release   <-chan struct{}
	reads     *atomic.Int64
	closes    *atomic.Int64
	parkedErr *error
}

func (s parkFS) Open(name string) (vfs.File, error) {
	f, err := s.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return parkFile{File: f, fs: s}, nil
}

type parkFile struct {
	vfs.File
	fs parkFS
}

func (f parkFile) ReadAt(p []byte, off int64) (int, error) {
	if f.fs.reads.Add(1) > 1 {
		return f.File.ReadAt(p, off)
	}
	f.fs.entered <- struct{}{}
	<-f.fs.release
	n, err := f.File.ReadAt(p, off)
	*f.fs.parkedErr = err
	return n, err
}

func (f parkFile) Close() error {
	f.fs.closes.Add(1)
	return f.File.Close()
}

// TestClusterFailedCopySparesOtherReads: read A is parked inside a ReadAt on
// the primary's handle while read B's copy of the same bytes, read through
// that handle, is rejected by B's check. B fails over to the mirror; the
// handle it drops must stay open for A, which then returns its bytes from
// the primary with no failover of its own, and the dropped handle is closed
// once A is done with it.
func TestClusterFailedCopySparesOtherReads(t *testing.T) {
	reg := metrics.NewRegistry()
	c, mems := newTestCluster(t, Config{Metrics: reg})
	name := "/c/set-a/dropping"
	want := []byte("shared payload")
	if err := vfs.WriteFile(c, name, want); err != nil {
		t.Fatal(err)
	}
	reps := c.Table().Place(name)
	entered, release := make(chan struct{}), make(chan struct{})
	var reads, closes atomic.Int64
	var parkedErr error
	c.AddNode(reps[0], parkFS{FS: mems[reps[0]], entered: entered, release: release,
		reads: &reads, closes: &closes, parkedErr: &parkedErr})
	f, err := c.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	gotA := make([]byte, len(want))
	done := make(chan error, 1)
	go func() {
		_, err := f.ReadAt(gotA, 0)
		done <- err
	}()
	<-entered
	checks := 0
	rejectFirst := func(p []byte) bool { checks++; return checks > 1 && bytes.Equal(p, want) }
	gotB := make([]byte, len(want))
	if err := vfs.ReadAtVerified(f, gotB, 0, rejectFirst); err != nil || !bytes.Equal(gotB, want) {
		t.Fatalf("read B = %q, %v; want the mirror's bytes", gotB, err)
	}
	close(release)
	if err := <-done; err != nil || !bytes.Equal(gotA, want) {
		t.Fatalf("read A = %q, %v; want its bytes", gotA, err)
	}
	if parkedErr != nil {
		t.Errorf("read A's copy on the primary = %v, want its bytes", parkedErr)
	}
	if n := reg.Counter("placement.failover.reads").Value(); n != 1 {
		t.Errorf("placement.failover.reads = %d, want 1 (read B's)", n)
	}
	if n := closes.Load(); n != 1 {
		t.Errorf("primary handles closed = %d once both reads returned, want the dropped one", n)
	}
}

// TestClusterHealthyReadAtAllocs pins the cost of the per-frame path under a
// zero Config, the one a deployment gets by default: a read its preferred
// replica answers allocates nothing — no goroutine, no private buffer.
func TestClusterHealthyReadAtAllocs(t *testing.T) {
	c, _ := newTestCluster(t, Config{})
	name := "/c/set-a/dropping"
	if err := vfs.WriteFile(c, name, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	f, err := c.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 1024)
	accept := func([]byte) bool { return true }
	if n := testing.AllocsPerRun(200, func() { f.ReadAt(buf, 0) }); n != 0 {
		t.Errorf("healthy ReadAt allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { vfs.ReadAtVerified(f, buf, 0, accept) }); n != 0 {
		t.Errorf("healthy ReadAtVerified allocates %v times, want 0", n)
	}
}

func TestClusterReadDirUnionAndRename(t *testing.T) {
	c, mems := newTestCluster(t, Config{})
	dir := "/c/set-r"
	if err := vfs.WriteFile(c, dir+"/staging.a", []byte("aa")); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(c, dir+"/b", []byte("bb")); err != nil {
		t.Fatal(err)
	}
	entries, err := c.ReadDir(dir)
	if err != nil || len(entries) != 2 {
		t.Fatalf("ReadDir = %v, %v", entries, err)
	}
	if entries[0].Name != "b" || entries[1].Name != "staging.a" {
		t.Fatalf("ReadDir order = %v", entries)
	}

	// Same-directory rename (the commit publish) applies on all replicas.
	if err := c.Rename(dir+"/staging.a", dir+"/a"); err != nil {
		t.Fatal(err)
	}
	if hold := holders(mems, dir+"/staging.a"); hold != nil {
		t.Fatalf("staging name survives on %v", hold)
	}
	if hold := holders(mems, dir+"/a"); len(hold) != 2 {
		t.Fatalf("renamed file on %v, want 2 replicas", hold)
	}

	// Replaying the rename over a half-applied set converges: undo it on
	// one replica, rename again.
	reps := c.Table().Place(dir + "/a")
	if err := mems[reps[1]].Rename(dir+"/a", dir+"/staging.a"); err != nil {
		t.Fatal(err)
	}
	if err := c.Rename(dir+"/staging.a", dir+"/a"); err != nil {
		t.Fatalf("replayed rename: %v", err)
	}
	if hold := holders(mems, dir+"/a"); len(hold) != 2 {
		t.Fatalf("after replay, file on %v", hold)
	}

	// Cross-replica-set renames are refused outright.
	var crossDir string
	for i := 0; ; i++ {
		cand := fmt.Sprintf("/c/other-%d", i)
		if !sameSet(c.Table().PlaceDir(cand), c.Table().PlaceDir(dir)) {
			crossDir = cand
			break
		}
	}
	if err := c.Rename(dir+"/a", crossDir+"/a"); err == nil {
		t.Fatal("cross-shard rename accepted")
	}
}

func TestClusterRemoveSemantics(t *testing.T) {
	c, mems := newTestCluster(t, Config{})
	name := "/c/set-rm/dropping"
	if err := vfs.WriteFile(c, name, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove(name); err != nil {
		t.Fatal(err)
	}
	if hold := holders(mems, name); hold != nil {
		t.Fatalf("removed file survives on %v", hold)
	}
	if err := c.Remove(name); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("second remove = %v, want NotExist", err)
	}
	// Removing while a node is unreachable fails — a copy could survive.
	if err := vfs.WriteFile(c, name, []byte("x")); err != nil {
		t.Fatal(err)
	}
	victim := c.Table().Place(name)[0]
	c.AddNode(victim, downFS{})
	if err := c.Remove(name); !errors.Is(err, vfs.ErrBackendDown) {
		t.Fatalf("remove with a holder down = %v, want ErrBackendDown", err)
	}
}

func TestClusterWriteFailsWithReplicaDown(t *testing.T) {
	c, mems := newTestCluster(t, Config{})
	name := "/c/set-w/dropping"
	victim := c.Table().Place(name)[1] // the mirror
	c.AddNode(victim, downFS{})
	err := vfs.WriteFile(c, name, []byte("strict"))
	if !errors.Is(err, vfs.ErrBackendDown) {
		t.Fatalf("write with mirror down = %v, want ErrBackendDown", err)
	}
	// Strict writes leave no partial copy behind.
	if hold := holders(mems, name); hold != nil {
		t.Fatalf("failed write left copies on %v", hold)
	}
}

func TestSetTableRejectsStaleAndUnknownNodes(t *testing.T) {
	c, _ := newTestCluster(t, Config{})
	stale := &Table{Version: 0, Replication: 2, Nodes: threeNodes()}
	if err := c.SetTable(stale); err == nil {
		t.Fatal("stale table accepted")
	}
	unknown := &Table{Version: 2, Replication: 2,
		Nodes: append(threeNodes(), Node{Name: "ghost"})}
	if err := c.SetTable(unknown); err == nil {
		t.Fatal("table naming an unregistered node accepted")
	}
	c.AddNode("n4", vfs.NewMemFS())
	ok := &Table{Version: 2, Replication: 2,
		Nodes: append(threeNodes(), Node{Name: "n4"})}
	if err := c.SetTable(ok); err != nil {
		t.Fatal(err)
	}
	if c.Table().Version != 2 {
		t.Fatalf("table version = %d", c.Table().Version)
	}
}

// TestOneHealthSource keeps the memory of a down node in one place. No source
// file under internal/ or cmd/ outside this package may test an error for
// vfs.ErrBackendDown — that is how a second failure detector starts — and
// the two watch paths above vfs.WatchFile may not grow a poll of their own.
func TestOneHealthSource(t *testing.T) {
	tests := regexp.MustCompile(`errors\.Is\([^()]*ErrBackendDown`)
	files := 0
	for _, root := range []string{"../../internal", "../../cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			files++
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			path = filepath.ToSlash(path)
			if strings.HasPrefix(path, "../../internal/placement/") {
				return nil
			}
			for i, line := range strings.Split(string(src), "\n") {
				if tests.MatchString(line) {
					t.Errorf("%s:%d tests for ErrBackendDown; only placement.Cluster remembers a down node", path, i+1)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if files < 50 {
		t.Fatalf("guard looked at only %d source files; is it running in internal/placement?", files)
	}

	noSleep := func(path, from, to string) {
		t.Helper()
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		body := string(src)
		if from != "" {
			start := strings.Index(body, from)
			if start < 0 {
				t.Fatalf("%s: no %q", path, from)
			}
			body = body[start:]
			body = body[:strings.Index(body, to)+len(to)]
		}
		if strings.Contains(body, "time.Sleep") {
			t.Errorf("%s sleeps in its watch; the poll is vfs.WatchFile", path)
		}
	}
	noSleep("../plfs/watch.go", "", "")
	noSleep("cluster.go", "func (c *Cluster) WatchFile(", "\n}\n")
}
