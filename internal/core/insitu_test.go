package core

import (
	"bytes"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/metrics"
	"repro/internal/sim"
)

func TestIngestWithStats(t *testing.T) {
	pdbBytes, traj, _ := testDataset(t, 200, 5)
	env := sim.NewEnv()
	a, _, _ := newADA(t, env, Options{})
	rep, err := a.IngestWithStats("/ds", pdbBytes, NewXTCTrajectory(bytes.NewReader(traj)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Frames != 5 {
		t.Fatalf("frames = %d", rep.Frames)
	}
	// The in-situ pass is charged to the storage node.
	if env.Profile.Get("storage.cpu.insitu") <= 0 {
		t.Error("in-situ analysis not charged")
	}

	for _, tag := range []string{TagProtein, TagMisc} {
		s, err := a.Stats("/ds", tag)
		if err != nil {
			t.Fatalf("stats %s: %v", tag, err)
		}
		if s.Frames != 5 || len(s.RGyr) != 5 || len(s.RMSD) != 5 || len(s.MSD) != 5 {
			t.Errorf("%s stats = %+v", tag, s)
		}
		if s.RMSD[0] != 0 || s.MSD[0] != 0 {
			t.Errorf("%s frame-0 deviations nonzero: %+v", tag, s)
		}
		if s.MeanRG <= 0 {
			t.Errorf("%s mean rgyr = %v", tag, s.MeanRG)
		}
	}

	// Stored stats agree with recomputing from the stored subset frames.
	sr, err := a.OpenSubset("/ds", TagProtein)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	var ts analysis.TrajectoryStats
	for {
		f, err := sr.ReadFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := ts.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	stored, err := a.Stats("/ds", TagProtein)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if math.Abs(stored.RGyr[i]-ts.RGyr[i]) > 1e-9 {
			t.Fatalf("frame %d rgyr: stored %v vs recomputed %v", i, stored.RGyr[i], ts.RGyr[i])
		}
	}

	// Subsets remain readable exactly as with plain Ingest.
	var frames int
	sr2, err := a.OpenSubsetAt("/ds", TagMisc)
	if err != nil {
		t.Fatal(err)
	}
	defer sr2.Close()
	frames = sr2.Frames()
	if frames != 5 {
		t.Errorf("misc subset frames = %d", frames)
	}
}

func TestStatsMissing(t *testing.T) {
	pdbBytes, traj, _ := testDataset(t, 300, 1)
	a, _, _ := newADA(t, nil, Options{})
	if _, err := a.Ingest("/plain", pdbBytes, bytes.NewReader(traj)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Stats("/plain", TagProtein); err == nil {
		t.Error("plain ingest should have no stats dropping")
	}
}

func TestIngestWithStatsErrorPropagates(t *testing.T) {
	pdbBytes, traj, _ := testDataset(t, 300, 2)
	a, _, _ := newADA(t, nil, Options{})
	if _, err := a.IngestWithStats("/x", pdbBytes,
		NewXTCTrajectory(bytes.NewReader(traj[:len(traj)-5]))); err == nil {
		t.Error("truncated stream should fail")
	}
}

// TestIngestWithStatsMatchesIngest: the statistics stage adds its stats.<tag>
// droppings and nothing else — every other dropping is byte-identical to a
// plain Ingest of the same stream, and the manifest differs only by the
// statistics' checksums.
func TestIngestWithStatsMatchesIngest(t *testing.T) {
	pdbBytes, traj, _ := testDataset(t, 200, journalCkptEvery+3)
	golden, goldenBytes := goldenDroppings(t, pdbBytes, traj)
	a, _, _ := newADA(t, nil, Options{Metrics: metrics.NewRegistry()})
	if _, err := a.IngestWithStats("/ds", pdbBytes, NewXTCTrajectory(bytes.NewReader(traj))); err != nil {
		t.Fatal(err)
	}
	idx, err := a.containers.Index("/ds")
	if err != nil {
		t.Fatal(err)
	}
	var names, stats []string
	for _, d := range idx {
		if strings.HasPrefix(d.Name, statsPrefix) {
			stats = append(stats, d.Name)
			continue
		}
		names = append(names, d.Name)
		got, err := a.readDropping("/ds", d.Name)
		if err != nil {
			t.Fatal(err)
		}
		if d.Name != droppingManifest && !bytes.Equal(got, goldenBytes[d.Name]) {
			t.Errorf("%s differs from the plain ingest's", d.Name)
		}
	}
	if len(names) != len(durableDroppings) || len(stats) != 2 {
		t.Fatalf("container holds %v and %v, want %v and two stats droppings", names, stats, durableDroppings)
	}
	want, err := golden.Manifest("/ds")
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.Manifest("/ds")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range stats {
		if _, ok := got.Checksums[name]; !ok {
			t.Errorf("manifest has no checksum for %s", name)
		}
		delete(got.Checksums, name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("manifest beyond the stats checksums differs:\n got %+v\nwant %+v", got, want)
	}
}
