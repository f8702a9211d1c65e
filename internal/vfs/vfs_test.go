package vfs

import (
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/metrics"
)

func TestCleanPaths(t *testing.T) {
	cases := map[string]string{
		"a/b":      "/a/b",
		"/a//b/.":  "/a/b",
		"/a/../b":  "/b",
		"/":        "/",
		"":         "/",
		"a/./b/c/": "/a/b/c",
	}
	for in, want := range cases {
		if got := Clean(in); got != want {
			t.Errorf("Clean(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCreateWriteOpenRead(t *testing.T) {
	m := NewMemFS()
	f, err := m.Create("/foo.txt")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello ")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("world")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(m, "foo.txt") // relative resolves to same file
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello world" {
		t.Errorf("read %q", got)
	}
	info, err := m.Stat("/foo.txt")
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != 11 || info.IsDir {
		t.Errorf("info = %+v", info)
	}
}

func TestOpenMissing(t *testing.T) {
	m := NewMemFS()
	if _, err := m.Open("/nope"); !errors.Is(err, ErrNotExist) {
		t.Errorf("err = %v", err)
	}
	if _, err := m.Stat("/nope"); !errors.Is(err, ErrNotExist) {
		t.Errorf("stat err = %v", err)
	}
}

func TestCreateRequiresParentDir(t *testing.T) {
	m := NewMemFS()
	if _, err := m.Create("/a/b/c"); !errors.Is(err, ErrNotExist) {
		t.Errorf("err = %v, want ErrNotExist for missing parent", err)
	}
	if err := m.MkdirAll("/a/b"); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(m, "/a/b/c", []byte("x")); err != nil {
		t.Fatal(err)
	}
}

func TestMkdirAllOverFileFails(t *testing.T) {
	m := NewMemFS()
	if err := WriteFile(m, "/x", []byte("f")); err != nil {
		t.Fatal(err)
	}
	if err := m.MkdirAll("/x/y"); !errors.Is(err, ErrNotDir) {
		t.Errorf("err = %v, want ErrNotDir", err)
	}
}

func TestReadDir(t *testing.T) {
	m := NewMemFS()
	if err := m.MkdirAll("/d/sub"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"/d/b.txt", "/d/a.txt", "/d/sub/deep.txt"} {
		if err := WriteFile(m, name, []byte("z")); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := m.ReadDir("/d")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("entries = %v", entries)
	}
	if entries[0].Name != "a.txt" || entries[1].Name != "b.txt" || entries[2].Name != "sub" {
		t.Errorf("order = %v, %v, %v", entries[0].Name, entries[1].Name, entries[2].Name)
	}
	if !entries[2].IsDir {
		t.Error("sub should be a directory")
	}
	if _, err := m.ReadDir("/d/a.txt"); !errors.Is(err, ErrNotDir) {
		t.Errorf("ReadDir on file: %v", err)
	}
}

func TestRemove(t *testing.T) {
	m := NewMemFS()
	if err := m.MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(m, "/d/f", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove("/d"); err == nil {
		t.Error("removing non-empty dir should fail")
	}
	if err := m.Remove("/d/f"); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove("/d"); err != nil {
		t.Fatal(err)
	}
	if Exists(m, "/d") {
		t.Error("dir still exists")
	}
	if err := m.Remove("/d"); !errors.Is(err, ErrNotExist) {
		t.Errorf("double remove: %v", err)
	}
}

func TestReadAt(t *testing.T) {
	m := NewMemFS()
	if err := WriteFile(m, "/f", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	f, err := m.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 4)
	n, err := f.ReadAt(buf, 3)
	if err != nil || n != 4 || string(buf) != "3456" {
		t.Errorf("ReadAt = %d %q %v", n, buf, err)
	}
	n, err = f.ReadAt(buf, 8)
	if err != io.EOF || n != 2 || string(buf[:n]) != "89" {
		t.Errorf("partial ReadAt = %d %q %v", n, buf[:n], err)
	}
	if _, err := f.ReadAt(buf, 100); err != io.EOF {
		t.Errorf("past-end ReadAt err = %v", err)
	}
	if _, err := f.ReadAt(buf, -1); err == nil {
		t.Error("negative offset should fail")
	}
}

// TestReadAtVerified covers a file with one copy: the bytes the check
// accepts come back, rejected or short bytes are ErrCorrupted, a read error
// passes through, and a file that has its own ReadAtVerified is handed the
// read — also through Instrument's wrapper, which counts it as one read.
func TestReadAtVerified(t *testing.T) {
	m := NewMemFS()
	if err := WriteFile(m, "/f", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	f, err := m.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	is := func(want string) func([]byte) bool {
		return func(p []byte) bool { return string(p) == want }
	}
	if err := ReadAtVerified(f, buf, 3, is("3456")); err != nil || string(buf) != "3456" {
		t.Errorf("accepted read = %q, %v", buf, err)
	}
	if err := ReadAtVerified(f, buf, 3, is("nope")); !errors.Is(err, ErrCorrupted) {
		t.Errorf("rejected read = %v, want ErrCorrupted", err)
	}
	if err := ReadAtVerified(f, buf, 8, is("89")); !errors.Is(err, ErrCorrupted) {
		t.Errorf("short read = %v, want ErrCorrupted", err)
	}
	f.Close()
	if err := ReadAtVerified(f, buf, 3, is("3456")); !errors.Is(err, ErrClosed) {
		t.Errorf("read of a closed file = %v, want ErrClosed", err)
	}

	reg := metrics.NewRegistry()
	inner := &copiesFile{File: f}
	wrapped := &instrumentedFile{File: inner, m: &Instrument(m, reg, "fs.t").m}
	if err := ReadAtVerified(wrapped, buf, 3, is("3456")); err != nil || inner.calls != 1 {
		t.Errorf("verified read through Instrument = %v, reached the file's own method %d times", err, inner.calls)
	}
	snap := reg.Snapshot()
	if snap.Histograms["fs.t.read.ns"].Count != 1 || snap.Counters["fs.t.bytes_read"] != 4 {
		t.Errorf("Instrument counted %d reads, %d bytes; want 1 read of 4 bytes",
			snap.Histograms["fs.t.read.ns"].Count, snap.Counters["fs.t.bytes_read"])
	}
}

// copiesFile stands in for a file with several copies: it answers verified
// reads itself.
type copiesFile struct {
	File
	calls int
}

func (c *copiesFile) ReadAtVerified(p []byte, off int64, ok func([]byte) bool) error {
	c.calls++
	copy(p, "3456")
	if !ok(p) {
		return ErrCorrupted
	}
	return nil
}

func TestClosedHandle(t *testing.T) {
	m := NewMemFS()
	f, err := m.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("write after close: %v", err)
	}
	if _, err := f.Read(make([]byte, 1)); !errors.Is(err, ErrClosed) {
		t.Errorf("read after close: %v", err)
	}
	if err := f.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("double close: %v", err)
	}
}

func TestOpenIsReadOnly(t *testing.T) {
	m := NewMemFS()
	if err := WriteFile(m, "/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	f, err := m.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte("y")); err == nil {
		t.Error("write through Open handle should fail")
	}
}

func TestCreateTruncates(t *testing.T) {
	m := NewMemFS()
	if err := WriteFile(m, "/f", []byte("long content")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(m, "/f", []byte("s")); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(m, "/f")
	if err != nil || string(got) != "s" {
		t.Errorf("got %q, %v", got, err)
	}
}

func TestWalk(t *testing.T) {
	m := NewMemFS()
	if err := m.MkdirAll("/a/b"); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/a/1", "/a/b/2", "/top"} {
		if err := WriteFile(m, p, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	var seen []string
	err := Walk(m, "/", func(p string, info FileInfo) error {
		seen = append(seen, p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"/a/1", "/a/b/2", "/top"}
	if len(seen) != len(want) {
		t.Fatalf("seen = %v", seen)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Errorf("seen = %v, want %v", seen, want)
		}
	}
}

func TestTotalBytes(t *testing.T) {
	m := NewMemFS()
	_ = m.MkdirAll("/d")
	_ = WriteFile(m, "/d/a", make([]byte, 100))
	_ = WriteFile(m, "/d/b", make([]byte, 23))
	if got := m.TotalBytes(); got != 123 {
		t.Errorf("TotalBytes = %d", got)
	}
}

// TestQuickWriteReadConsistency writes random chunk sequences and verifies
// the file content equals the concatenation.
func TestQuickWriteReadConsistency(t *testing.T) {
	f := func(seed int64, nChunks uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewMemFS()
		fh, err := m.Create("/f")
		if err != nil {
			return false
		}
		var want []byte
		for i := 0; i < int(nChunks)%10+1; i++ {
			chunk := make([]byte, rng.Intn(300))
			rng.Read(chunk)
			want = append(want, chunk...)
			if _, err := fh.Write(chunk); err != nil {
				return false
			}
		}
		fh.Close()
		got, err := ReadFile(m, "/f")
		if err != nil || len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
