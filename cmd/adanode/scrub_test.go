package main

import (
	"bytes"
	"testing"

	"repro/internal/metrics"
	"repro/internal/vfs"
	"repro/internal/xtc"
)

// TestNodeScrubberFindsRottenFrame: a pass over a served tree verifies every
// frame of a checksummed subset against the index beside it, and a flipped
// byte — or a payload cut short — is counted under node.scrub.corrupted.
func TestNodeScrubberFindsRottenFrame(t *testing.T) {
	var payload bytes.Buffer
	w := xtc.NewRawWriter(&payload)
	for i := 0; i < 3; i++ {
		f := &xtc.Frame{Step: int32(i), Coords: make([]xtc.Vec3, 40), Precision: 1000}
		if err := w.WriteFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	idx, err := xtc.BuildIndexChecksummed(bytes.NewReader(payload.Bytes()), int64(payload.Len()))
	if err != nil {
		t.Fatal(err)
	}
	fsys := vfs.NewMemFS()
	if err := vfs.WriteFile(fsys, "/mnt/ds/index.p", idx.Marshal()); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		damage    func(p []byte) []byte
		corrupted int64
	}{
		{"clean", func(p []byte) []byte { return p }, 0},
		{"flipped byte", func(p []byte) []byte { p[len(p)/2] ^= 1; return p }, 1},
		{"cut short", func(p []byte) []byte { return p[:len(p)-1] }, 1},
	} {
		stored := tc.damage(append([]byte(nil), payload.Bytes()...))
		if err := vfs.WriteFile(fsys, "/mnt/ds/subset.p", stored); err != nil {
			t.Fatal(err)
		}
		reg := metrics.NewRegistry()
		newNodeScrubber(fsys, 0, reg).pass()
		snap := reg.Snapshot()
		if got := snap.Counters["node.scrub.corrupted"]; got != tc.corrupted {
			t.Errorf("%s: node.scrub.corrupted = %d, want %d", tc.name, got, tc.corrupted)
		}
		if tc.corrupted == 0 && snap.Counters["node.scrub.bytes"] != int64(payload.Len()) {
			t.Errorf("%s: node.scrub.bytes = %d, want %d", tc.name, snap.Counters["node.scrub.bytes"], payload.Len())
		}
	}
}
