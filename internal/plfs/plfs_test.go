package plfs

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/vfs"
)

func twoBackends() (*FS, *vfs.MemFS, *vfs.MemFS) {
	ssd := vfs.NewMemFS()
	hdd := vfs.NewMemFS()
	p, err := New(
		Backend{Name: "ssd", FS: ssd, Mount: "/mnt1"},
		Backend{Name: "hdd", FS: hdd, Mount: "/mnt2"},
	)
	if err != nil {
		panic(err)
	}
	return p, ssd, hdd
}

func TestNewValidation(t *testing.T) {
	if _, err := New(); err == nil {
		t.Error("no backends should fail")
	}
	m := vfs.NewMemFS()
	if _, err := New(Backend{Name: "a", FS: m}, Backend{Name: "a", FS: m}); err == nil {
		t.Error("duplicate names should fail")
	}
	if _, err := New(Backend{Name: "a"}); err == nil {
		t.Error("nil FS should fail")
	}
}

func TestContainerLifecycle(t *testing.T) {
	p, ssd, hdd := twoBackends()
	if p.ContainerExists("/bar") {
		t.Error("container should not exist yet")
	}
	if err := p.CreateContainer("/bar"); err != nil {
		t.Fatal(err)
	}
	if !p.ContainerExists("/bar") {
		t.Error("container should exist")
	}
	// Fig 6: a top-level directory per mount.
	for _, fsys := range []*vfs.MemFS{ssd, hdd} {
		info, err := fsys.Stat("/mnt1/bar")
		if fsys == hdd {
			info, err = fsys.Stat("/mnt2/bar")
		}
		if err != nil || !info.IsDir {
			t.Errorf("container dir missing: %+v, %v", info, err)
		}
	}

	// Write droppings to different backends.
	wp, err := p.CreateDropping("/bar", "subset.p", "ssd")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wp.Write([]byte("protein-data")); err != nil {
		t.Fatal(err)
	}
	wp.Close()
	wm, err := p.CreateDropping("/bar", "subset.m", "hdd")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wm.Write([]byte("misc")); err != nil {
		t.Fatal(err)
	}
	wm.Close()

	// Data landed on the right backends.
	if got, err := vfs.ReadFile(ssd, "/mnt1/bar/subset.p"); err != nil || string(got) != "protein-data" {
		t.Errorf("ssd dropping = %q, %v", got, err)
	}
	if got, err := vfs.ReadFile(hdd, "/mnt2/bar/subset.m"); err != nil || string(got) != "misc" {
		t.Errorf("hdd dropping = %q, %v", got, err)
	}

	// Index resolves reads.
	f, err := p.OpenDropping("/bar", "subset.p")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, f.Size())
	if _, err := f.Read(buf); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if !bytes.Equal(buf, []byte("protein-data")) {
		t.Errorf("read %q", buf)
	}

	idx, err := p.Index("/bar")
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 2 {
		t.Fatalf("index = %+v", idx)
	}
	if idx[0].Name != "subset.m" || idx[0].Backend != "hdd" || idx[0].Size != 4 {
		t.Errorf("idx[0] = %+v", idx[0])
	}
	if idx[1].Name != "subset.p" || idx[1].Backend != "ssd" || idx[1].Size != 12 {
		t.Errorf("idx[1] = %+v", idx[1])
	}

	d, err := p.StatDropping("/bar", "subset.p")
	if err != nil || d.Size != 12 || d.Backend != "ssd" {
		t.Errorf("StatDropping = %+v, %v", d, err)
	}

	if err := p.RemoveContainer("/bar"); err != nil {
		t.Fatal(err)
	}
	if p.ContainerExists("/bar") {
		t.Error("container should be gone")
	}
	if vfs.Exists(ssd, "/mnt1/bar") || vfs.Exists(hdd, "/mnt2/bar") {
		t.Error("container dirs should be gone")
	}
}

func TestCreateDroppingValidation(t *testing.T) {
	p, _, _ := twoBackends()
	if err := p.CreateContainer("/c"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.CreateDropping("/c", "d", "nvme"); err == nil {
		t.Error("unknown backend should fail")
	}
	for _, bad := range []string{"", "a/b", ".plfs_index", "x\ty"} {
		if _, err := p.CreateDropping("/c", bad, "ssd"); err == nil {
			t.Errorf("dropping name %q should be rejected", bad)
		}
	}
	if _, err := p.CreateDropping("/missing", "d", "ssd"); err == nil {
		t.Error("missing container should fail")
	}
}

func TestRecreateDroppingRepoints(t *testing.T) {
	p, _, _ := twoBackends()
	if err := p.CreateContainer("/c"); err != nil {
		t.Fatal(err)
	}
	w, err := p.CreateDropping("/c", "d", "ssd")
	if err != nil {
		t.Fatal(err)
	}
	w.Write([]byte("v1"))
	w.Close()
	// Re-create on the other backend; index must follow.
	w, err = p.CreateDropping("/c", "d", "hdd")
	if err != nil {
		t.Fatal(err)
	}
	w.Write([]byte("v2"))
	w.Close()
	d, err := p.StatDropping("/c", "d")
	if err != nil || d.Backend != "hdd" {
		t.Errorf("dropping = %+v, %v", d, err)
	}
	idx, err := p.Index("/c")
	if err != nil || len(idx) != 1 {
		t.Errorf("index = %+v, %v", idx, err)
	}
	f, err := p.OpenDropping("/c", "d")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 2)
	f.Read(buf)
	if string(buf) != "v2" {
		t.Errorf("read %q", buf)
	}
}

// TestPutDropping: a put replaces a dropping whole, in place on its
// backend, and writes the index only for a name it does not yet hold; a name
// indexed on another backend is refused; and what a put torn before its
// rename leaves — the temp sibling — is overwritten by the next put and
// swept as an orphan.
func TestPutDropping(t *testing.T) {
	p, ssd, hdd := twoBackends()
	if err := p.CreateContainer("/c"); err != nil {
		t.Fatal(err)
	}
	index := func() string {
		data, err := vfs.ReadFile(ssd, "/mnt1/c/"+indexFileName)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	if err := p.PutDropping("/c", "head", "hdd", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	want := index()
	if want != "head\thdd\n" {
		t.Fatalf("index after the first put = %q", want)
	}
	// A torn earlier put left its temp sibling; the next put writes through it.
	tear := func() {
		if err := vfs.WriteFile(hdd, "/mnt2/c/head.tmp", []byte("torn")); err != nil {
			t.Fatal(err)
		}
	}
	tear()
	if err := p.PutDropping("/c", "head", "hdd", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got, err := vfs.ReadFile(ssd, "/mnt1/c/"+indexFileName); err != nil || string(got) != want {
		t.Fatalf("index after a second put = %q, %v; want it untouched, %q", got, err, want)
	}
	f, err := p.OpenDropping("/c", "head")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	n, _ := f.Read(buf)
	f.Close()
	if string(buf[:n]) != "v2" || vfs.Exists(hdd, "/mnt2/c/head.tmp") {
		t.Fatalf("read %q after the second put, want v2 and no temp file left", buf[:n])
	}
	if err := p.PutDropping("/c", "head", "ssd", []byte("v3")); !errors.Is(err, ErrCrossBackend) {
		t.Fatalf("put onto another backend = %v, want ErrCrossBackend", err)
	}
	for _, bad := range []string{"", "a/b", indexFileName} {
		if err := p.PutDropping("/c", bad, "ssd", nil); err == nil {
			t.Errorf("put of dropping name %q should be rejected", bad)
		}
	}
	if err := p.PutDropping("/c", "d", "nvme", nil); err == nil {
		t.Error("put on an unknown backend should fail")
	}
	tear()
	if removed, err := p.SweepOrphans("/c"); err != nil || fmt.Sprint(removed) != "[hdd:head.tmp]" {
		t.Fatalf("sweep = %v, %v; want only the torn put's temp file", removed, err)
	}
}

func TestOpenMissingDropping(t *testing.T) {
	p, _, _ := twoBackends()
	if err := p.CreateContainer("/c"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.OpenDropping("/c", "nope"); !errors.Is(err, vfs.ErrNotExist) {
		t.Errorf("err = %v", err)
	}
	if _, err := p.OpenDropping("/nope", "d"); err == nil {
		t.Error("missing container should fail")
	}
}

func TestIndexSurvivesReload(t *testing.T) {
	// A second FS instance over the same backends sees the same containers:
	// the index is durable state on the canonical backend, not process memory.
	ssd := vfs.NewMemFS()
	hdd := vfs.NewMemFS()
	mk := func() *FS {
		p, err := New(
			Backend{Name: "ssd", FS: ssd, Mount: "/mnt1"},
			Backend{Name: "hdd", FS: hdd, Mount: "/mnt2"},
		)
		if err != nil {
			panic(err)
		}
		return p
	}
	p1 := mk()
	if err := p1.CreateContainer("/t"); err != nil {
		t.Fatal(err)
	}
	w, err := p1.CreateDropping("/t", "d", "hdd")
	if err != nil {
		t.Fatal(err)
	}
	w.Write([]byte("persist"))
	w.Close()

	p2 := mk()
	if !p2.ContainerExists("/t") {
		t.Fatal("second instance does not see container")
	}
	f, err := p2.OpenDropping("/t", "d")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, f.Size())
	f.Read(buf)
	if string(buf) != "persist" {
		t.Errorf("read %q", buf)
	}
}

func TestBackendsOrder(t *testing.T) {
	p, _, _ := twoBackends()
	got := p.Backends()
	if len(got) != 2 || got[0] != "ssd" || got[1] != "hdd" {
		t.Errorf("Backends = %v", got)
	}
}

func TestListContainers(t *testing.T) {
	p, _, _ := twoBackends()
	names, err := p.ListContainers()
	if err != nil || len(names) != 0 {
		t.Fatalf("empty store: %v, %v", names, err)
	}
	for _, n := range []string{"/b.xtc", "/a.xtc", "/deep/run1.xtc"} {
		if err := p.CreateContainer(n); err != nil {
			t.Fatal(err)
		}
	}
	names, err = p.ListContainers()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"/a.xtc", "/b.xtc", "/deep/run1.xtc"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("names = %v, want %v", names, want)
		}
	}
	if err := p.RemoveContainer("/a.xtc"); err != nil {
		t.Fatal(err)
	}
	names, _ = p.ListContainers()
	if len(names) != 2 {
		t.Errorf("after remove: %v", names)
	}
}

// flakyFS is a MemFS whose transport can go away: while failed, every call
// the store dispatches to it returns the typed down error an rpc client
// returns once its retry budget is spent.
type flakyFS struct {
	*vfs.MemFS
	failed bool
}

func (f *flakyFS) down() error {
	return fmt.Errorf("rpc: stat failed after 4 attempts: %w: connection refused", vfs.ErrBackendDown)
}

func (f *flakyFS) Create(name string) (vfs.File, error) {
	if f.failed {
		return nil, f.down()
	}
	return f.MemFS.Create(name)
}

func (f *flakyFS) Open(name string) (vfs.File, error) {
	if f.failed {
		return nil, f.down()
	}
	return f.MemFS.Open(name)
}

func (f *flakyFS) Stat(name string) (vfs.FileInfo, error) {
	if f.failed {
		return vfs.FileInfo{}, f.down()
	}
	return f.MemFS.Stat(name)
}

// TestDeadBackendIsDispatchedNotRemembered: the store holds no health state.
// While a backend is down every call routed to it carries the typed error up
// and the other backend keeps serving; the moment it is back the very next
// call succeeds, with nothing to probe or revive in between.
func TestDeadBackendIsDispatchedNotRemembered(t *testing.T) {
	flaky := &flakyFS{MemFS: vfs.NewMemFS()}
	p, err := New(
		Backend{Name: "good", FS: vfs.NewMemFS(), Mount: "/mnt1"},
		Backend{Name: "flaky", FS: flaky, Mount: "/mnt2"},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CreateContainer("/traj"); err != nil {
		t.Fatal(err)
	}
	f, err := p.CreateDropping("/traj", "subset.p", "flaky")
	if err != nil {
		t.Fatal(err)
	}
	f.Close()

	for cycle := 1; cycle <= 3; cycle++ {
		flaky.failed = true
		if _, err := p.StatDropping("/traj", "subset.p"); !errors.Is(err, vfs.ErrBackendDown) {
			t.Fatalf("cycle %d: stat on dead backend = %v, want ErrBackendDown", cycle, err)
		}
		if _, err := p.OpenDropping("/traj", "subset.p"); !errors.Is(err, vfs.ErrBackendDown) {
			t.Fatalf("cycle %d: open on dead backend = %v, want ErrBackendDown", cycle, err)
		}
		if _, err := p.CreateDropping("/traj", "more.p", "flaky"); !errors.Is(err, vfs.ErrBackendDown) {
			t.Fatalf("cycle %d: create on dead backend = %v, want ErrBackendDown", cycle, err)
		}
		// A backend that cannot answer is not an empty one: the orphan sweep
		// must not unlink the droppings it holds.
		if _, err := p.SweepOrphans("/traj"); !errors.Is(err, vfs.ErrBackendDown) {
			t.Fatalf("cycle %d: sweep over a dead backend = %v, want ErrBackendDown", cycle, err)
		}
		g, err := p.CreateDropping("/traj", "other.p", "good")
		if err != nil {
			t.Fatalf("cycle %d: healthy backend refused work: %v", cycle, err)
		}
		g.Close()

		flaky.failed = false
		if _, err := p.StatDropping("/traj", "subset.p"); err != nil {
			t.Fatalf("cycle %d: first call after the backend returned: %v", cycle, err)
		}
	}
	flaky.failed = true
	if err := p.RemoveContainer("/traj"); !errors.Is(err, vfs.ErrBackendDown) {
		t.Fatalf("remove with a backend down = %v, want ErrBackendDown: its part of the container may survive", err)
	}
	// The index goes last, so what survives is still found.
	if names, err := p.ListContainers(); err != nil || len(names) != 1 {
		t.Fatalf("containers after a partial remove = %v, %v; want /traj, for recovery to find", names, err)
	}
}

// indexed returns a store whose container /c holds subset.p on ssd and
// staging.subset.p on hdd, with index as its .plfs_index.
func indexed(t testing.TB, index []byte) *FS {
	p, ssd, hdd := twoBackends()
	if err := p.CreateContainer("/c"); err != nil {
		t.Fatal(err)
	}
	for _, err := range []error{
		vfs.WriteFile(ssd, "/mnt1/c/subset.p", []byte("frames")),
		vfs.WriteFile(hdd, "/mnt2/c/staging.subset.p", []byte("frames")),
		vfs.WriteFile(ssd, "/mnt1/c/"+indexFileName, index),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// indexOps runs every operation that resolves droppings through the index
// and returns their errors.
func indexOps(p *FS) []error {
	var errs []error
	_, err := p.Index("/c")
	errs = append(errs, err)
	_, err = p.StatDropping("/c", "subset.p")
	errs = append(errs, err)
	f, err := p.OpenDropping("/c", "subset.p")
	if err == nil {
		f.Close()
	}
	errs = append(errs, err,
		p.PutDropping("/c", "subset.p", "ssd", []byte("put")),
		p.ReplaceDropping("/c", "staging.subset.p", "subset.p"),
		p.RemoveDropping("/c", "subset.p"))
	_, err = p.SweepOrphans("/c")
	return append(errs, err)
}

// TestCorruptIndex checks that an index naming a backend the store lacks,
// or holding a line longer than a line scanner's buffer, is a corrupt index
// to every operation. StatDropping once dereferenced the missing backend,
// and the long line once ended the index there without an error, dropping
// the entries after it.
func TestCorruptIndex(t *testing.T) {
	for name, index := range map[string]string{
		"unknown backend": "subset.p\tnvme\n",
		"long line":       "subset.p\tssd\n" + strings.Repeat("x", 70<<10) + "\nstaging.subset.p\thdd\n",
	} {
		for i, err := range indexOps(indexed(t, []byte(index))) {
			if !errors.Is(err, ErrCorruptIndex) {
				t.Errorf("%s: op %d = %v, want ErrCorruptIndex", name, i, err)
			}
		}
	}
}

// FuzzContainerIndex writes arbitrary bytes as a container's .plfs_index and
// runs every index-resolving operation over it. Rule: no panic, and every
// error is typed — a corrupt index, a missing dropping, or a refused
// cross-backend put.
func FuzzContainerIndex(f *testing.F) {
	for _, seed := range []string{
		"subset.p\tssd\nstaging.subset.p\thdd\n",
		"subset.p\tssd\nstaging.subset.p\tssd\n",
		"subset.p\tnvme\n",
		"subset.p\tssd\tx\n",
		"../subset.p\tssd\n",
		"\n \n",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, index []byte) {
		for i, err := range indexOps(indexed(t, index)) {
			if err != nil && !errors.Is(err, ErrCorruptIndex) &&
				!errors.Is(err, vfs.ErrNotExist) && !errors.Is(err, ErrCrossBackend) {
				t.Fatalf("op %d over index %q: untyped error %v", i, index, err)
			}
		}
	})
}
