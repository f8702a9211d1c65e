package vfs

import (
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

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

// watcherFS stands in for a file system that can wait for a change itself
// (an rpc client, a placement cluster): it answers WatchFile calls.
type watcherFS struct {
	FS
	calls   int
	timeout time.Duration
}

func (w *watcherFS) WatchFile(name string, lastCRC uint32, timeout time.Duration) ([]byte, uint32, bool, error) {
	w.calls++
	w.timeout = timeout
	return []byte("theirs"), 7, true, nil
}

// deadFS fails every open the way an exhausted rpc client does.
type deadFS struct{ FS }

func (deadFS) Open(string) (File, error) { return nil, ErrBackendDown }

// TestWatchFile covers the one poll: a stale CRC returns at once, an
// unchanged file waits out the timeout (zero = one look), a change, a creation
// and a removal each wake it, a missing file is nil with CRC 0, a read error
// passes through, and a file system with its own WatchFile is handed the call.
func TestWatchFile(t *testing.T) {
	crc := func(s string) uint32 { return crc32.Checksum([]byte(s), crc32.MakeTable(crc32.Castagnoli)) }
	write := func(s string) func(*MemFS) error {
		return func(m *MemFS) error { return WriteFile(m, "/head", []byte(s)) }
	}
	remove := func(m *MemFS) error { return m.Remove("/head") }
	for _, tc := range []struct {
		name    string
		start   func(*MemFS) error // nil: the file does not exist yet
		lastCRC uint32
		timeout time.Duration
		then    func(*MemFS) error // what happens 10 ms into the watch, if anything
		data    string             // "" stands for nil
		crc     uint32
		changed bool
	}{
		{"stale CRC returns at once", write("v1"), 0, time.Minute, nil, "v1", crc("v1"), true},
		{"unchanged file times out", write("v1"), crc("v1"), 30 * time.Millisecond, nil, "", crc("v1"), false},
		{"zero timeout is one look", write("v1"), crc("v1"), 0, nil, "", crc("v1"), false},
		{"missing file is CRC 0", nil, 0, 30 * time.Millisecond, nil, "", 0, false},
		{"replacement wakes the poll", write("v1"), crc("v1"), time.Minute, write("v2"), "v2", crc("v2"), true},
		{"creation wakes the poll", nil, 0, time.Minute, write("born"), "born", crc("born"), true},
		{"removal wakes the poll", write("v1"), crc("v1"), time.Minute, remove, "", 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMemFS()
			if tc.start != nil {
				if err := tc.start(m); err != nil {
					t.Fatal(err)
				}
			}
			done := make(chan error, 1)
			go func() {
				time.Sleep(10 * time.Millisecond)
				if tc.then == nil {
					done <- nil
				} else {
					done <- tc.then(m)
				}
			}()
			start := time.Now()
			data, got, changed, err := WatchFile(m, "/head", tc.lastCRC, tc.timeout)
			elapsed := time.Since(start)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if err != nil || changed != tc.changed || got != tc.crc || string(data) != tc.data || (tc.data == "") != (data == nil) {
				t.Fatalf("WatchFile = (%q, %#x, %v, %v), want (%q, %#x, %v)", data, got, changed, err, tc.data, tc.crc, tc.changed)
			}
			if !tc.changed && elapsed < tc.timeout {
				t.Errorf("returned unchanged after %v, before the %v timeout", elapsed, tc.timeout)
			}
		})
	}

	if _, _, _, err := WatchFile(deadFS{NewMemFS()}, "/head", 0, time.Minute); !errors.Is(err, ErrBackendDown) {
		t.Errorf("watch over a dead file system = %v, want its error", err)
	}
	w := &watcherFS{FS: deadFS{NewMemFS()}}
	data, got, changed, err := WatchFile(w, "/head", 3, time.Hour)
	if err != nil || !changed || got != 7 || string(data) != "theirs" || w.calls != 1 || w.timeout != time.Hour {
		t.Errorf("hand-off = (%q, %d, %v, %v) after %d calls with timeout %v", data, got, changed, err, w.calls, w.timeout)
	}
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
