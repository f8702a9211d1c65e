package vfs

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"repro/internal/metrics"
)

// TestInstrumentTransparent drives the same operation sequence against a
// bare MemFS and an instrumented one and requires identical observable
// behavior: results, errors, directory listings, and file contents.
func TestInstrumentTransparent(t *testing.T) {
	reg := metrics.NewRegistry()
	bare := NewMemFS()
	wrapped := Instrument(NewMemFS(), reg, "fs.test")

	type step func(fs FS) (interface{}, error)
	steps := []struct {
		name string
		run  step
	}{
		{"mkdir", func(fs FS) (interface{}, error) { return nil, fs.MkdirAll("/a/b") }},
		{"write", func(fs FS) (interface{}, error) { return nil, WriteFile(fs, "/a/b/f.txt", []byte("hello world")) }},
		{"read", func(fs FS) (interface{}, error) { return ReadFile(fs, "/a/b/f.txt") }},
		{"stat", func(fs FS) (interface{}, error) { return fs.Stat("/a/b/f.txt") }},
		{"readdir", func(fs FS) (interface{}, error) { return fs.ReadDir("/a/b") }},
		{"open-missing", func(fs FS) (interface{}, error) { return nil, errOnly(fs.Open("/nope")) }},
		{"create-over-dir", func(fs FS) (interface{}, error) { return nil, errOnly(fs.Create("/a/b")) }},
		{"remove", func(fs FS) (interface{}, error) { return nil, fs.Remove("/a/b/f.txt") }},
		{"stat-after-remove", func(fs FS) (interface{}, error) { return nil, errOnly2(fs.Stat("/a/b/f.txt")) }},
	}
	for _, s := range steps {
		gotBare, errBare := s.run(bare)
		gotWrapped, errWrapped := s.run(wrapped)
		if (errBare == nil) != (errWrapped == nil) {
			t.Fatalf("%s: error mismatch: bare=%v wrapped=%v", s.name, errBare, errWrapped)
		}
		if errBare != nil && !errors.Is(errWrapped, errors.Unwrap(errBare)) &&
			errBare.Error() != errWrapped.Error() {
			t.Errorf("%s: error text mismatch: bare=%v wrapped=%v", s.name, errBare, errWrapped)
		}
		if !reflect.DeepEqual(gotBare, gotWrapped) {
			t.Errorf("%s: result mismatch: bare=%#v wrapped=%#v", s.name, gotBare, gotWrapped)
		}
	}

	// Partial reads and ReadAt semantics survive the wrapper.
	if err := WriteFile(wrapped, "/seq", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	f, err := wrapped.Open("/seq")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if n, err := f.Read(buf); n != 4 || err != nil || string(buf) != "0123" {
		t.Errorf("Read = %d,%v,%q", n, err, buf)
	}
	if n, err := f.ReadAt(buf, 8); n != 2 || err != io.EOF || string(buf[:n]) != "89" {
		t.Errorf("ReadAt = %d,%v,%q", n, err, buf[:n])
	}
	if f.Size() != 10 || f.Name() != "/seq" {
		t.Errorf("Size/Name = %d,%q", f.Size(), f.Name())
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// The registry actually saw the traffic.
	s := reg.Snapshot()
	if s.Counters["fs.test.ops.create"] == 0 || s.Counters["fs.test.ops.open"] == 0 {
		t.Errorf("op counters not recorded: %+v", s.Counters)
	}
	if s.Counters["fs.test.bytes_written"] < 11 {
		t.Errorf("bytes_written = %d, want ≥ 11", s.Counters["fs.test.bytes_written"])
	}
	if s.Counters["fs.test.bytes_read"] < 11 {
		t.Errorf("bytes_read = %d, want ≥ 11", s.Counters["fs.test.bytes_read"])
	}
	if s.Counters["fs.test.errors"] < 3 { // open-missing, create-over-dir, stat-after-remove
		t.Errorf("errors = %d, want ≥ 3", s.Counters["fs.test.errors"])
	}
	if s.Histograms["fs.test.open.ns"].Count == 0 || s.Histograms["fs.test.write.ns"].Count == 0 {
		t.Errorf("latency histograms empty: %+v", s.Histograms)
	}
	if wrapped.Unwrap() == nil {
		t.Error("Unwrap returned nil")
	}
}

func errOnly(_ File, err error) error      { return err }
func errOnly2(_ FileInfo, err error) error { return err }

// sendFS serves MemFS files that send their own bytes, as an osfs file does
// to a TCP connection.
type sendFS struct{ *MemFS }

func (s sendFS) Open(name string) (File, error) {
	f, err := s.MemFS.Open(name)
	if err != nil {
		return nil, err
	}
	return sendFile{f}, nil
}

type sendFile struct{ File }

func (sendFile) CanSendRange(io.Writer) bool { return true }

func (f sendFile) SendRange(w io.Writer, off, n int64) (int64, error) {
	return io.Copy(w, io.NewSectionReader(f.File, off, n))
}

// TestInstrumentForwardsSend: an instrumented file sends when its file can,
// accounted as the one read it is (one read latency, its bytes), and a file
// that cannot send still cannot through the wrapper.
func TestInstrumentForwardsSend(t *testing.T) {
	reg := metrics.NewRegistry()
	inner := sendFS{NewMemFS()}
	if err := WriteFile(inner, "/f", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	wrapped := Instrument(inner, reg, "fs.test")
	f, err := wrapped.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if !CanSendRange(f, &buf) {
		t.Fatal("the instrumented file hides its file's send")
	}
	if sent, err := SendRange(f, &buf, 2, 5); sent != 5 || err != nil || buf.String() != "23456" {
		t.Fatalf("SendRange = %d, %v, %q", sent, err, buf.String())
	}
	snap := reg.Snapshot()
	if snap.Counters["fs.test.bytes_read"] != 5 || snap.Histograms["fs.test.read.ns"].Count != 1 || snap.Counters["fs.test.errors"] != 0 {
		t.Errorf("bytes_read %d, read.ns count %d, errors %d; want 5, 1, 0",
			snap.Counters["fs.test.bytes_read"], snap.Histograms["fs.test.read.ns"].Count, snap.Counters["fs.test.errors"])
	}
	plain := Instrument(NewMemFS(), metrics.NewRegistry(), "fs.plain")
	if err := WriteFile(plain, "/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	g, err := plain.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	if CanSendRange(g, &buf) {
		t.Error("an instrumented MemFS file claims to send")
	}
}
