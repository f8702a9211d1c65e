// Node-side scrubbing: a storage node only sees dropping files, not whole
// datasets, but every checksummed subset carries its v2 index right beside
// it. The scrubber walks the served tree, pairs each index.<tag> with its
// subset.<tag>, and verifies every frame against the recorded CRC32C at a
// bounded byte rate. Damage found on the node shows up under node.scrub.*
// before any client read trips over it.
package main

import (
	"path"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/vfs"
	"repro/internal/xtc"
)

// nodeScrubber walks one served tree verifying subset checksums.
type nodeScrubber struct {
	fsys vfs.FS
	rate int64 // payload bytes per second; <=0 = unthrottled

	passes    *metrics.Counter // node.scrub.passes
	files     *metrics.Counter // node.scrub.files: subset payloads verified
	bytes     *metrics.Counter // node.scrub.bytes
	corrupted *metrics.Counter // node.scrub.corrupted
}

func newNodeScrubber(fsys vfs.FS, rate int64, reg *metrics.Registry) *nodeScrubber {
	return &nodeScrubber{
		fsys:      fsys,
		rate:      rate,
		passes:    reg.Counter("node.scrub.passes"),
		files:     reg.Counter("node.scrub.files"),
		bytes:     reg.Counter("node.scrub.bytes"),
		corrupted: reg.Counter("node.scrub.corrupted"),
	}
}

// loop runs scrub passes forever, resting between passes; it is launched as
// a background goroutine and dies with the process.
func (s *nodeScrubber) loop(rest time.Duration) {
	for {
		s.pass()
		s.passes.Inc()
		time.Sleep(rest)
	}
}

// pass walks the tree once.
func (s *nodeScrubber) pass() {
	s.walk("/")
}

func (s *nodeScrubber) walk(dir string) {
	entries, err := s.fsys.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := path.Join(dir, e.Name)
		if e.IsDir {
			s.walk(name)
			continue
		}
		tag, ok := strings.CutPrefix(e.Name, "index.")
		if !ok {
			continue
		}
		s.verifySubset(path.Join(dir, "subset."+tag), name)
	}
}

// verifySubset checks one subset payload against its index's per-frame
// checksums (v1 indexes carry none and are skipped).
func (s *nodeScrubber) verifySubset(subsetPath, indexPath string) {
	idxBytes, err := vfs.ReadFile(s.fsys, indexPath)
	if err != nil {
		return
	}
	idx, err := xtc.UnmarshalIndex(idxBytes)
	if err != nil {
		s.corrupted.Inc()
		return
	}
	if !idx.HasChecksums() {
		return
	}
	f, err := s.fsys.Open(subsetPath)
	if err != nil {
		return // the subset may live on another backend; not this node's to judge
	}
	defer f.Close()
	s.files.Inc()
	var budget int64
	buf := make([]byte, 0)
	for i := 0; i < idx.Frames(); i++ {
		size := idx.Size(i)
		if int64(cap(buf)) < size {
			buf = make([]byte, size)
		}
		buf = buf[:size]
		if vfs.ReadAtVerified(f, buf, idx.Offset(i), func(b []byte) bool { return idx.FrameOK(i, b) }) != nil {
			s.corrupted.Inc()
			return
		}
		s.bytes.Add(size)
		budget += size
		budget = s.throttle(budget)
	}
}

// throttle keeps the pass at the configured byte rate.
func (s *nodeScrubber) throttle(budget int64) int64 {
	if s.rate <= 0 {
		return 0
	}
	d := time.Duration(float64(budget) / float64(s.rate) * float64(time.Second))
	if d < time.Millisecond {
		return budget
	}
	time.Sleep(d)
	return 0
}
