package plfs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/blockfs"
	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/vfs"
)

// putDropping writes one dropping through the store.
func putDropping(t *testing.T, p *FS, logical, name, backend string, data []byte) {
	t.Helper()
	f, err := p.CreateDropping(logical, name, backend)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// usage walks every backend of p.
func usage(t *testing.T, p *FS) map[string]int64 {
	t.Helper()
	out := map[string]int64{}
	for _, name := range p.Backends() {
		n, err := p.UsageOf(name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = n
	}
	return out
}

func TestUsageAccounting(t *testing.T) {
	p, _, _ := twoBackends()
	reg := metrics.NewRegistry()
	p.SetMetrics(reg)
	if err := p.CreateContainer("/c"); err != nil {
		t.Fatal(err)
	}
	putDropping(t, p, "/c", "a", "ssd", make([]byte, 100))
	putDropping(t, p, "/c", "b", "hdd", make([]byte, 50))
	u := usage(t, p)
	if u["ssd"] != 100 || u["hdd"] != 50 {
		t.Fatalf("usage = %v, want ssd:100 hdd:50", u)
	}
	if got := reg.Snapshot().Gauges["plfs.backend.ssd.bytes"]; got != 100 {
		t.Fatalf("ssd gauge = %d, want 100", got)
	}

	// Recreate truncates: the walk sees the overwrite.
	putDropping(t, p, "/c", "a", "ssd", make([]byte, 40))
	if got := usage(t, p)["ssd"]; got != 40 {
		t.Fatalf("ssd usage after overwrite = %d, want 40", got)
	}
	// A replace within the backend moves bytes: no net change.
	if err := p.ReplaceDropping("/c", "a", "a2"); err != nil {
		t.Fatal(err)
	}
	if got := usage(t, p)["ssd"]; got != 40 {
		t.Fatalf("ssd usage after replace = %d, want 40", got)
	}
	// A replace over an existing dropping subtracts the overwritten bytes.
	putDropping(t, p, "/c", "a3", "ssd", make([]byte, 7))
	if err := p.ReplaceDropping("/c", "a3", "a2"); err != nil {
		t.Fatal(err)
	}
	if got := usage(t, p)["ssd"]; got != 7 {
		t.Fatalf("ssd usage after replace-overwrite = %d, want 7", got)
	}
	if err := p.RemoveDropping("/c", "a2"); err != nil {
		t.Fatal(err)
	}
	if got := usage(t, p)["ssd"]; got != 0 {
		t.Fatalf("ssd usage after remove = %d, want 0", got)
	}
	if err := p.RemoveContainer("/c"); err != nil {
		t.Fatal(err)
	}
	u = usage(t, p)
	if u["ssd"] != 0 || u["hdd"] != 0 {
		t.Fatalf("usage after container removal = %v, want zeros", u)
	}
}

// TestUsageSeedsFromDisk checks that a fresh FS over existing backends
// measures what is already on the mounts, and that the index dropping and
// temp files are not counted.
func TestUsageSeedsFromDisk(t *testing.T) {
	p, ssd, hdd := twoBackends()
	if err := p.CreateContainer("/c"); err != nil {
		t.Fatal(err)
	}
	putDropping(t, p, "/c", "a", "ssd", make([]byte, 64))
	putDropping(t, p, "/c", "b", "hdd", make([]byte, 32))
	// A stray temp file (torn ReplaceFile) must not count.
	if err := vfs.WriteFile(ssd, "/mnt1/c/x.tmp", make([]byte, 999)); err != nil {
		t.Fatal(err)
	}

	p2, err := New(
		Backend{Name: "ssd", FS: ssd, Mount: "/mnt1"},
		Backend{Name: "hdd", FS: hdd, Mount: "/mnt2"},
	)
	if err != nil {
		t.Fatal(err)
	}
	u := usage(t, p2)
	if u["ssd"] != 64 || u["hdd"] != 32 {
		t.Fatalf("seeded usage = %v, want ssd:64 hdd:32", u)
	}
}

// listFailFS is a MemFS whose listing of one directory fails with err.
type listFailFS struct {
	*vfs.MemFS
	dir string
	err error
}

func (f listFailFS) ReadDir(name string) ([]vfs.FileInfo, error) {
	if name == f.dir {
		return nil, f.err
	}
	return f.MemFS.ReadDir(name)
}

// TestUsageWalkRules: a directory gone by the time the walk lists it is
// empty and a missing mount is 0, but any other listing error fails the
// walk rather than pass a short sum for the truth.
func TestUsageWalkRules(t *testing.T) {
	mem := vfs.NewMemFS()
	for name, size := range map[string]int{"/mnt/a/subset.p": 10, "/mnt/b/subset.p": 20} {
		if err := vfs.WriteFile(mem, name, make([]byte, size)); err != nil {
			t.Fatal(err)
		}
	}
	store := func(listErr error) *FS {
		p, err := New(
			Backend{Name: "ssd", FS: listFailFS{mem, "/mnt/b", listErr}, Mount: "/mnt"},
			Backend{Name: "hdd", FS: mem, Mount: "/none"},
		)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	if n, err := store(fmt.Errorf("%w: /mnt/b", vfs.ErrNotExist)).UsageOf("ssd"); err != nil || n != 10 {
		t.Errorf("walk past a vanished directory = %d, %v; want 10", n, err)
	}
	if n, err := store(nil).UsageOf("hdd"); err != nil || n != 0 {
		t.Errorf("missing mount = %d, %v; want 0", n, err)
	}
	if n, err := store(vfs.ErrBackendDown).UsageOf("ssd"); !errors.Is(err, vfs.ErrBackendDown) {
		t.Errorf("walk over a failing listing = %d, %v; want ErrBackendDown", n, err)
	}
	if _, err := store(nil).UsageOf("nvme"); err == nil {
		t.Error("usage of an unknown backend succeeded")
	}
}

func TestReplaceDroppingCrossBackend(t *testing.T) {
	p, ssd, _ := twoBackends()
	if err := p.CreateContainer("/c"); err != nil {
		t.Fatal(err)
	}
	putDropping(t, p, "/c", "x", "ssd", []byte("old-old-old"))
	putDropping(t, p, "/c", "staging.x", "hdd", []byte("new"))

	if err := p.ReplaceDropping("/c", "staging.x", "x"); err != nil {
		t.Fatal(err)
	}
	d, err := p.StatDropping("/c", "x")
	if err != nil {
		t.Fatal(err)
	}
	if d.Backend != "hdd" || d.Size != 3 {
		t.Fatalf("x = %+v, want backend hdd size 3", d)
	}
	f, err := p.OpenDropping("/c", "x")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := vfs.ReadFile(ssd, "/mnt1/c/x")
	if got != nil {
		t.Fatalf("stale ssd copy survives: %q", got)
	}
	buf := make([]byte, 3)
	if _, err := f.ReadAt(buf, 0); err != nil || !bytes.Equal(buf, []byte("new")) {
		t.Fatalf("content %q err %v", buf, err)
	}
	f.Close()
	// No staging entry left in the index.
	idx, err := p.Index("/c")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range idx {
		if e.Name == "staging.x" {
			t.Fatal("staging entry survives in index")
		}
	}
	if u := usage(t, p); u["ssd"] != 0 || u["hdd"] != 3 {
		t.Fatalf("usage after replace = %v, want ssd:0 hdd:3", u)
	}
	// Replacing from a missing source fails cleanly.
	if err := p.ReplaceDropping("/c", "nope", "x"); err == nil {
		t.Fatal("replace from missing source succeeded")
	}
}

func TestReplaceDroppingSameBackend(t *testing.T) {
	p, _, _ := twoBackends()
	if err := p.CreateContainer("/c"); err != nil {
		t.Fatal(err)
	}
	putDropping(t, p, "/c", "x", "ssd", []byte("aaaa"))
	putDropping(t, p, "/c", "staging.x", "ssd", []byte("bb"))
	if err := p.ReplaceDropping("/c", "staging.x", "x"); err != nil {
		t.Fatal(err)
	}
	d, err := p.StatDropping("/c", "x")
	if err != nil {
		t.Fatal(err)
	}
	if d.Backend != "ssd" || d.Size != 2 {
		t.Fatalf("x = %+v, want backend ssd size 2", d)
	}
	if got := usage(t, p)["ssd"]; got != 2 {
		t.Fatalf("ssd usage = %d, want 2", got)
	}
}

func TestSweepOrphans(t *testing.T) {
	p, ssd, hdd := twoBackends()
	if err := p.CreateContainer("/c"); err != nil {
		t.Fatal(err)
	}
	putDropping(t, p, "/c", "keep", "ssd", []byte("data"))
	// An unreferenced file on the other backend — the torn half of a
	// crashed migration.
	if err := vfs.WriteFile(hdd, "/mnt2/c/ghost", []byte("zzz")); err != nil {
		t.Fatal(err)
	}
	// A dangling index entry: remove the file behind the store's back.
	putDropping(t, p, "/c", "gone", "ssd", []byte("x"))
	if err := ssd.Remove("/mnt1/c/gone"); err != nil {
		t.Fatal(err)
	}

	removed, err := p.SweepOrphans("/c")
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || removed[0] != "hdd:ghost" {
		t.Fatalf("removed = %v, want [hdd:ghost]", removed)
	}
	idx, err := p.Index("/c")
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 1 || idx[0].Name != "keep" {
		t.Fatalf("index = %v, want only keep", idx)
	}
	// The canonical index file itself must never be swept.
	if !vfs.Exists(ssd, "/mnt1/c/"+indexFileName) {
		t.Fatal("sweep removed the container index")
	}
	// Idempotent on a clean container.
	if removed, err := p.SweepOrphans("/c"); err != nil || len(removed) != 0 {
		t.Fatalf("second sweep: %v, %v", removed, err)
	}
}

// TestCreateDroppingNoSpace checks that a full block-device backend surfaces
// the typed vfs.ErrNoSpace through CreateDropping instead of tearing mid-write.
func TestCreateDroppingNoSpace(t *testing.T) {
	dev := device.Device{
		Name: "tiny", ReadBW: 100 * device.MB, WriteBW: 100 * device.MB,
		SeekSec: 0, Capacity: 2 * blockfs.BlockSize,
	}
	bfs := blockfs.New("tiny", dev, nil)
	p, err := New(Backend{Name: "ssd", FS: bfs, Mount: "/"})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CreateContainer("/c"); err != nil {
		t.Fatal(err)
	}
	// Fill the device completely (the index file occupies part of a block,
	// so one full-capacity dropping write leaves zero free blocks).
	f, err := p.CreateDropping("/c", "fill", "ssd")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, bfs.FreeBytes())); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if bfs.FreeBytes() > 0 {
		t.Fatalf("device still has %d free bytes", bfs.FreeBytes())
	}
	_, err = p.CreateDropping("/c", "more", "ssd")
	if !errors.Is(err, vfs.ErrNoSpace) {
		t.Fatalf("err = %v, want vfs.ErrNoSpace", err)
	}
}
