package plfs

import (
	"bytes"
	"errors"
	"fmt"
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
}
