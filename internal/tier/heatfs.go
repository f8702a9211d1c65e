package tier

import (
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/vfs"
)

// HeatFS decorates a served file system so that reads of subset payloads
// feed trk: the one heat feeder. Paths follow the container layout
// /<mount>/<logical...>/<dropping>. Read, ReadAt and SendRange of subset.<tag> record
// their bytes under that dropping — a live payload too, which has that one
// name from its first append, so a tailed dataset is hot under the name it
// keeps once sealed. Nothing else is recorded — frame indexes, manifests,
// staged copies — and every other operation passes through unchanged.
func HeatFS(inner vfs.FS, trk *Tracker) vfs.FS { return &heatedFS{FS: inner, trk: trk} }

type heatedFS struct {
	vfs.FS
	trk *Tracker
}

func (h *heatedFS) Open(name string) (vfs.File, error) {
	f, err := h.FS.Open(name)
	if err != nil {
		return f, err
	}
	if logical, dropping, ok := payloadTarget(name); ok {
		return &heatFile{File: f, trk: h.trk, logical: logical, dropping: dropping}, nil
	}
	return f, nil
}

// payloadTarget parses /<mount>/<logical...>/<dropping> and reports the
// dataset and the subset payload name to record, if the path is one.
func payloadTarget(name string) (logical, dropping string, ok bool) {
	parts := strings.Split(strings.Trim(vfs.Clean(name), "/"), "/")
	if len(parts) < 3 {
		return "", "", false
	}
	dropping = parts[len(parts)-1]
	if _, ok := core.SubsetTag(dropping); !ok {
		return "", "", false
	}
	return "/" + strings.Join(parts[1:len(parts)-1], "/"), dropping, true
}

type heatFile struct {
	vfs.File
	trk               *Tracker
	logical, dropping string
}

func (f *heatFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	f.trk.Record(f.logical, f.dropping, int64(n))
	return n, err
}

func (f *heatFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.trk.Record(f.logical, f.dropping, int64(n))
	return n, err
}

// CanSendRange and SendRange forward the inner file's send (a node serving
// a read with sendfile), which heats the payload as the read it is.
func (f *heatFile) CanSendRange(w io.Writer) bool { return vfs.CanSendRange(f.File, w) }

func (f *heatFile) SendRange(w io.Writer, off, n int64) (int64, error) {
	sent, err := vfs.SendRange(f.File, w, off, n)
	f.trk.Record(f.logical, f.dropping, sent)
	return sent, err
}
