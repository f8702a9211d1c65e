package vfs

import (
	"io"
	"time"

	"repro/internal/metrics"
)

// InstrumentedFS wraps an FS and records per-operation counts, error
// counts, byte totals, and latency histograms into a metrics registry. The
// wrapper is behavior-transparent: every call, result, and error passes
// through unchanged.
//
// Metric names are rooted at the given prefix (typically the backend name):
//
//	<prefix>.ops.<op>       counter, one per Create/Open/Stat/ReadDir/MkdirAll/Remove/Rename
//	<prefix>.errors         counter, failed operations (file I/O included)
//	<prefix>.<op>.ns        histogram, per-op latency
//	<prefix>.bytes_read     counter (Read, ReadAt and SendRange on files)
//	<prefix>.bytes_written  counter
//	<prefix>.read.ns        histogram, per-call file read latency
//	<prefix>.write.ns       histogram, per-call file write latency
type InstrumentedFS struct {
	fs  FS
	m   fsMetrics
	reg *metrics.Registry
}

// fsMetrics holds pre-resolved metric handles so the hot path never takes
// the registry lock.
type fsMetrics struct {
	ops     [7]*metrics.Counter // indexed by opKind
	latency [7]*metrics.Histogram
	errors  *metrics.Counter

	bytesRead    *metrics.Counter
	bytesWritten *metrics.Counter
	readNS       *metrics.Histogram
	writeNS      *metrics.Histogram
}

type opKind int

const (
	opCreate opKind = iota
	opOpen
	opStat
	opReadDir
	opMkdirAll
	opRemove
	opRename
)

var opNames = [7]string{"create", "open", "stat", "readdir", "mkdirall", "remove", "rename"}

// Instrument wraps fsys so every operation is recorded under prefix in reg.
// A nil reg uses metrics.Default. Instrumenting an already-instrumented FS
// double-counts; don't.
func Instrument(fsys FS, reg *metrics.Registry, prefix string) *InstrumentedFS {
	if reg == nil {
		reg = metrics.Default
	}
	ifs := &InstrumentedFS{fs: fsys, reg: reg}
	for i, name := range opNames {
		ifs.m.ops[i] = reg.Counter(prefix + ".ops." + name)
		ifs.m.latency[i] = reg.Histogram(prefix + "." + name + ".ns")
	}
	ifs.m.errors = reg.Counter(prefix + ".errors")
	ifs.m.bytesRead = reg.Counter(prefix + ".bytes_read")
	ifs.m.bytesWritten = reg.Counter(prefix + ".bytes_written")
	ifs.m.readNS = reg.Histogram(prefix + ".read.ns")
	ifs.m.writeNS = reg.Histogram(prefix + ".write.ns")
	return ifs
}

var _ FS = (*InstrumentedFS)(nil)

// Unwrap returns the underlying FS.
func (i *InstrumentedFS) Unwrap() FS { return i.fs }

// record accounts one completed operation.
func (i *InstrumentedFS) record(op opKind, start time.Time, err error) {
	i.m.ops[op].Inc()
	i.m.latency[op].Observe(time.Since(start).Nanoseconds())
	if err != nil {
		i.m.errors.Inc()
	}
}

// Create implements FS.
func (i *InstrumentedFS) Create(name string) (File, error) {
	start := time.Now()
	f, err := i.fs.Create(name)
	i.record(opCreate, start, err)
	if err != nil {
		return nil, err
	}
	return &instrumentedFile{File: f, m: &i.m}, nil
}

// Open implements FS.
func (i *InstrumentedFS) Open(name string) (File, error) {
	start := time.Now()
	f, err := i.fs.Open(name)
	i.record(opOpen, start, err)
	if err != nil {
		return nil, err
	}
	return &instrumentedFile{File: f, m: &i.m}, nil
}

// Stat implements FS.
func (i *InstrumentedFS) Stat(name string) (FileInfo, error) {
	start := time.Now()
	info, err := i.fs.Stat(name)
	i.record(opStat, start, err)
	return info, err
}

// ReadDir implements FS.
func (i *InstrumentedFS) ReadDir(name string) ([]FileInfo, error) {
	start := time.Now()
	entries, err := i.fs.ReadDir(name)
	i.record(opReadDir, start, err)
	return entries, err
}

// MkdirAll implements FS.
func (i *InstrumentedFS) MkdirAll(name string) error {
	start := time.Now()
	err := i.fs.MkdirAll(name)
	i.record(opMkdirAll, start, err)
	return err
}

// Remove implements FS.
func (i *InstrumentedFS) Remove(name string) error {
	start := time.Now()
	err := i.fs.Remove(name)
	i.record(opRemove, start, err)
	return err
}

// Rename implements FS.
func (i *InstrumentedFS) Rename(oldname, newname string) error {
	start := time.Now()
	err := i.fs.Rename(oldname, newname)
	i.record(opRename, start, err)
	return err
}

// instrumentedFile accounts file-level reads and writes.
type instrumentedFile struct {
	File
	m *fsMetrics
}

func (f *instrumentedFile) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Read(p)
	f.m.readNS.Observe(time.Since(start).Nanoseconds())
	f.m.bytesRead.Add(int64(n))
	if err != nil && err != io.EOF {
		f.m.errors.Inc()
	}
	return n, err
}

func (f *instrumentedFile) ReadAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := f.File.ReadAt(p, off)
	f.m.readNS.Observe(time.Since(start).Nanoseconds())
	f.m.bytesRead.Add(int64(n))
	if err != nil && err != io.EOF {
		f.m.errors.Inc()
	}
	return n, err
}

// ReadAtVerified forwards the verified read, so instrumenting a file with
// several copies does not hide them; it is accounted as the one read it is.
func (f *instrumentedFile) ReadAtVerified(p []byte, off int64, ok func([]byte) bool) error {
	start := time.Now()
	err := ReadAtVerified(f.File, p, off, ok)
	f.m.readNS.Observe(time.Since(start).Nanoseconds())
	if err != nil {
		f.m.errors.Inc()
		return err
	}
	f.m.bytesRead.Add(int64(len(p)))
	return nil
}

// CanSendRange and SendRange forward the inner file's send, so instrumenting
// a file does not hide it; a send is accounted as the read it is.
func (f *instrumentedFile) CanSendRange(w io.Writer) bool { return CanSendRange(f.File, w) }

func (f *instrumentedFile) SendRange(w io.Writer, off, n int64) (int64, error) {
	start := time.Now()
	sent, err := SendRange(f.File, w, off, n)
	f.m.readNS.Observe(time.Since(start).Nanoseconds())
	f.m.bytesRead.Add(sent)
	if err != nil {
		f.m.errors.Inc()
	}
	return sent, err
}

func (f *instrumentedFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.m.writeNS.Observe(time.Since(start).Nanoseconds())
	f.m.bytesWritten.Add(int64(n))
	if err != nil {
		f.m.errors.Inc()
	}
	return n, err
}
