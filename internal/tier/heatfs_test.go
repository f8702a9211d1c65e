package tier

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/osfs"
	"repro/internal/vfs"
)

// TestHeatFS checks which served reads the decorator records, and that
// every other operation reaches the inner file system unchanged.
func TestHeatFS(t *testing.T) {
	mem := vfs.NewMemFS()
	for name, n := range map[string]int{
		"/mnt1/runs/a/subset.p":             100,
		"/mnt1/runs/a/subset.m":             40, // a live payload: the one name it keeps
		"/mnt1/runs/a/staging.subset.m":     10, // a resume's cut prefix, not yet published
		"/mnt1/runs/a/index.p":              10,
		"/mnt1/runs/a/manifest.json":        10,
		"/mnt1/runs/a/staging.mig.subset.p": 10, // a staged migration copy
		"/mnt1/subset.p":                    10, // no dataset component
	} {
		if err := vfs.WriteFile(mem, name, bytes.Repeat([]byte{7}, n)); err != nil {
			t.Fatal(err)
		}
	}
	trk := NewTracker((&virtualClock{}).Now, 0)
	h := HeatFS(mem, trk)
	read := func(name string) {
		t.Helper()
		f, err := h.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := io.ReadAll(f); err != nil {
			t.Fatal(err)
		}
	}

	// Read and ReadAt of a payload under a nested logical name.
	f, err := h.Open("/mnt1/runs/a/subset.p")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := f.Read(make([]byte, 30)); n != 30 || err != nil {
		t.Fatalf("Read = %d, %v", n, err)
	}
	if n, err := f.ReadAt(make([]byte, 20), 50); n != 20 || err != nil {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	f.Close()
	if got := trk.Heat("/runs/a", "subset.p"); got != 50 {
		t.Fatalf("payload heat = %g, want 50", got)
	}

	// A live payload is heat on the name it keeps once sealed.
	read("/mnt1/runs/a/subset.m")
	if got := trk.Heat("/runs/a", "subset.m"); got != 40 {
		t.Fatalf("live payload heat = %g, want 40", got)
	}
	for _, name := range []string{
		"/mnt1/runs/a/staging.subset.m", "/mnt1/runs/a/index.p", "/mnt1/runs/a/manifest.json",
		"/mnt1/runs/a/staging.mig.subset.p", "/mnt1/subset.p",
	} {
		read(name)
	}
	if trk.Len() != 2 {
		t.Fatalf("tracker holds %d series, want subset.p and subset.m only", trk.Len())
	}

	// Everything but Open passes through.
	if _, err := h.Open("/mnt1/runs/a/subset.q"); err == nil {
		t.Fatal("Open of a missing payload succeeded")
	}
	if err := h.MkdirAll("/mnt1/runs/b"); err != nil {
		t.Fatal(err)
	}
	w, err := h.Create("/mnt1/runs/b/subset.p")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("frames")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if err := h.Rename("/mnt1/runs/b/subset.p", "/mnt1/runs/b/subset.m"); err != nil {
		t.Fatal(err)
	}
	if fi, err := mem.Stat("/mnt1/runs/b/subset.m"); err != nil || fi.Size != 6 {
		t.Fatalf("inner Stat after Create+Rename = %+v, %v", fi, err)
	}
	if fi, err := h.Stat("/mnt1/runs/b/subset.m"); err != nil || fi.Size != 6 {
		t.Fatalf("Stat = %+v, %v", fi, err)
	}
	if ents, err := h.ReadDir("/mnt1/runs/b"); err != nil || len(ents) != 1 || ents[0].Name != "subset.m" {
		t.Fatalf("ReadDir = %+v, %v", ents, err)
	}
	if err := h.Remove("/mnt1/runs/b/subset.m"); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.Stat("/mnt1/runs/b/subset.m"); err == nil {
		t.Fatal("Remove did not reach the inner file system")
	}
	if trk.Len() != 2 || trk.Heat("/runs/b", "subset.m") != 0 {
		t.Fatal("a write-side operation recorded heat")
	}
}

// TestHeatFSObservesReads reads a served store every way a reader can —
// streaming, random access, tailing a live dataset — on datasets ingested
// with checksums and without, and checks each read heats its subset.
func TestHeatFSObservesReads(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts core.Options
	}{
		{"verified", core.Options{Metrics: metrics.NewRegistry()}},
		{"raw", core.Options{Metrics: metrics.NewRegistry(), DisableChecksums: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pdbBytes, traj := testDataset(t, 200, 3)
			ssd, hdd := vfs.NewMemFS(), vfs.NewMemFS()
			containers := storeOver(t, ssd, hdd)
			if _, err := core.New(containers, nil, tc.opts).Ingest("/ds", pdbBytes, bytes.NewReader(traj)); err != nil {
				t.Fatal(err)
			}
			trk := NewTracker((&virtualClock{}).Now, 0)
			a := core.New(heatedStore(t, ssd, hdd, trk), nil, tc.opts)

			// A streaming read heats the payload by exactly its stored size.
			readFrames(t, a, "/ds", core.TagProtein)
			d, err := containers.StatDropping("/ds", "subset."+core.TagProtein)
			if err != nil {
				t.Fatal(err)
			}
			if got := trk.Heat("/ds", "subset."+core.TagProtein); got != float64(d.Size) {
				t.Fatalf("streaming read heat = %g, want the payload's %d bytes", got, d.Size)
			}
			rr, err := a.OpenSubsetAt("/ds", core.TagMisc)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rr.ReadFrameAt(1); err != nil {
				t.Fatal(err)
			}
			rr.Close()
			if trk.Heat("/ds", "subset."+core.TagMisc) <= 0 {
				t.Fatal("random-access read recorded no heat")
			}

			// A tailing read is heat on the subset too, under the one name
			// the payload has from its first append until after the seal.
			li, err := a.OpenLiveIngest("/live", pdbBytes)
			if err != nil {
				t.Fatal(err)
			}
			defer li.Abort()
			if _, err := li.Append(traj); err != nil {
				t.Fatal(err)
			}
			lr, err := a.OpenLiveReader("/live", core.TagProtein, time.Hour)
			if err != nil {
				t.Fatal(err)
			}
			defer lr.Close()
			before := trk.Heat("/live", "subset."+core.TagProtein)
			if _, err := lr.ReadFrameAt(1); err != nil {
				t.Fatal(err)
			}
			if trk.Heat("/live", "subset."+core.TagProtein) <= before {
				t.Fatal("tailing read recorded no heat")
			}
			if trk.Heat("/live", "staging.subset."+core.TagProtein) != 0 {
				t.Fatal("tailing read recorded under the staging name")
			}
		})
	}
}

// TestHeatFSRecordsSends: a served payload sent straight to a TCP connection
// (osfs, sendfile(2)) heats its subset exactly as reading the same bytes
// does, and the send reaches the connection through the wrapper.
func TestHeatFSRecordsSends(t *testing.T) {
	base, err := osfs.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	content := bytes.Repeat([]byte("frame"), 20000)
	if err := vfs.WriteFile(base, "/mnt1/runs/a/subset.p", content); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		if c, err := ln.Accept(); err == nil {
			io.Copy(io.Discard, c)
			c.Close()
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	trk := NewTracker((&virtualClock{}).Now, 0)
	f, err := HeatFS(base, trk).Open("/mnt1/runs/a/subset.p")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if !vfs.CanSendRange(f, conn) {
		t.Fatal("HeatFS hides the payload's send")
	}
	if sent, err := vfs.SendRange(f, conn, 1000, 50000); sent != 50000 || err != nil {
		t.Fatalf("SendRange = %d, %v", sent, err)
	}
	if got := trk.Heat("/runs/a", "subset.p"); got != 50000 {
		t.Errorf("heat after a 50000-byte send = %g", got)
	}
	if _, err := f.ReadAt(make([]byte, 50000), 0); err != nil {
		t.Fatal(err)
	}
	if got := trk.Heat("/runs/a", "subset.p"); got != 100000 {
		t.Errorf("heat after a send and a read of 50000 bytes each = %g, want 100000", got)
	}
}
