package core

import (
	"bytes"
	"testing"

	"repro/internal/metrics"
	"repro/internal/plfs"
	"repro/internal/vfs"
)

// newMeteredADA builds an ADA over instrumented MemFS backends with an
// isolated registry wired through every layer.
func newMeteredADA(t testing.TB, reg *metrics.Registry) *ADA {
	t.Helper()
	ssd := vfs.Instrument(vfs.NewMemFS(), reg, "fs.ssd")
	hdd := vfs.Instrument(vfs.NewMemFS(), reg, "fs.hdd")
	containers, err := plfs.New(
		plfs.Backend{Name: "ssd", FS: ssd, Mount: "/mnt1"},
		plfs.Backend{Name: "hdd", FS: hdd, Mount: "/mnt2"},
	)
	if err != nil {
		t.Fatal(err)
	}
	containers.SetMetrics(reg)
	return New(containers, nil, Options{Metrics: reg})
}

func checkIngestMetrics(t *testing.T, reg *metrics.Registry, frames int, compressed int64) {
	t.Helper()
	s := reg.Snapshot()
	if got := s.Counters["ingest.runs"]; got != 1 {
		t.Errorf("ingest.runs = %d, want 1", got)
	}
	if got := s.Counters["ingest.frames"]; got != int64(frames) {
		t.Errorf("ingest.frames = %d, want %d", got, frames)
	}
	if got := s.Counters["ingest.bytes.compressed"]; got != compressed {
		t.Errorf("ingest.bytes.compressed = %d, want %d", got, compressed)
	}
	if s.Counters["ingest.bytes.raw"] == 0 || s.Counters["ingest.bytes.written"] == 0 {
		t.Errorf("byte counters empty: %+v", s.Counters)
	}
	if got := s.Histograms["ingest.decode.ns"].Count; got != int64(frames) {
		t.Errorf("decode observations = %d, want %d", got, frames)
	}
	if got := s.Histograms["ingest.write.ns"].Count; got != int64(frames) {
		t.Errorf("write observations = %d, want %d", got, frames)
	}
	if got := s.Histograms["ingest.total.ns"].Count; got != 1 {
		t.Errorf("ingest.total spans = %d, want 1", got)
	}
	// The PLFS dispatch counters saw both backends (protein → ssd,
	// misc → hdd, per DefaultPlacement).
	if s.Counters["plfs.containers_created"] != 1 {
		t.Errorf("plfs.containers_created = %d", s.Counters["plfs.containers_created"])
	}
	if s.Counters["plfs.backend.ssd.droppings_created"] == 0 ||
		s.Counters["plfs.backend.hdd.droppings_created"] == 0 {
		t.Errorf("backend dispatch counters missing: %+v", s.Counters)
	}
	// The instrumented backends saw real bytes.
	if s.Counters["fs.ssd.bytes_written"] == 0 || s.Counters["fs.hdd.bytes_written"] == 0 {
		t.Errorf("fs byte counters empty: %+v", s.Counters)
	}
}

func TestIngestMetricsSerial(t *testing.T) {
	pdbBytes, traj, _ := testDataset(t, 200, 5)
	// Every entry point runs the one session, so each records the same
	// metrics — the in-situ statistics path included.
	for name, ingest := range map[string]func(a *ADA) (*IngestReport, error){
		"Ingest": func(a *ADA) (*IngestReport, error) {
			return a.Ingest("/m.xtc", pdbBytes, bytes.NewReader(traj))
		},
		"IngestWithStats": func(a *ADA) (*IngestReport, error) {
			return a.IngestWithStats("/m.xtc", pdbBytes, NewXTCTrajectory(bytes.NewReader(traj)))
		},
	} {
		t.Run(name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			a := newMeteredADA(t, reg)
			rep, err := ingest(a)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Frames != 5 {
				t.Fatalf("frames = %d", rep.Frames)
			}
			checkIngestMetrics(t, reg, 5, int64(len(traj)))
			if a.Metrics() != reg {
				t.Error("Metrics() did not return the configured registry")
			}
		})
	}
}

func TestIngestMetricsParallel(t *testing.T) {
	pdbBytes, traj, _ := testDataset(t, 200, 6)
	reg := metrics.NewRegistry()
	a := newMeteredADA(t, reg)
	rep, err := a.IngestParallel("/m.xtc", pdbBytes, bytes.NewReader(traj), 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Frames != 6 {
		t.Fatalf("frames = %d", rep.Frames)
	}
	checkIngestMetrics(t, reg, 6, int64(len(traj)))
	// The decoder reports its own series: every frame decoded and timed.
	s := reg.Snapshot()
	if s.Counters["xtc.decode.frames"] != 6 || s.Histograms["xtc.decode.ns"].Count != 6 {
		t.Errorf("xtc.decode.frames = %d, xtc.decode.ns observations = %d, want 6 each",
			s.Counters["xtc.decode.frames"], s.Histograms["xtc.decode.ns"].Count)
	}
}

// TestIngestMetricsTransparent: the same ingest against a metered and an
// unmetered instance must produce byte-identical stored subsets.
func TestIngestMetricsTransparent(t *testing.T) {
	pdbBytes, traj, _ := testDataset(t, 200, 3)
	plain, _, _ := newADA(t, nil, Options{})
	metered := newMeteredADA(t, metrics.NewRegistry())
	repA, err := plain.Ingest("/t.xtc", pdbBytes, bytes.NewReader(traj))
	if err != nil {
		t.Fatal(err)
	}
	repB, err := metered.Ingest("/t.xtc", pdbBytes, bytes.NewReader(traj))
	if err != nil {
		t.Fatal(err)
	}
	for tag, n := range repA.Subsets {
		if repB.Subsets[tag] != n {
			t.Errorf("subset %s: %d vs %d bytes", tag, n, repB.Subsets[tag])
		}
	}
	for _, a := range []*ADA{plain, metered} {
		sr, err := a.OpenSubset("/t.xtc", TagProtein)
		if err != nil {
			t.Fatal(err)
		}
		f, err := sr.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if f.NAtoms() == 0 {
			t.Error("empty first frame")
		}
		sr.Close()
	}
}
