package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/metrics"
	"repro/internal/plfs"
	"repro/internal/vfs"
	"repro/internal/xtc"
)

// TestMoveSubsetRoundTrip relocates a subset to the other backend and back;
// reads must stay byte-identical and both the plfs index and the manifest
// must track the placement.
func TestMoveSubsetRoundTrip(t *testing.T) {
	pdbBytes, traj, _ := testDataset(t, 200, 3)
	a, _, _ := newADA(t, nil, Options{Metrics: metrics.NewRegistry()})
	if _, err := a.Ingest("/ds", pdbBytes, bytes.NewReader(traj)); err != nil {
		t.Fatal(err)
	}
	golden := readSubsetFrames(t, a, "/ds", TagProtein)
	payload, err := a.readDropping("/ds", subsetPrefix+TagProtein)
	if err != nil {
		t.Fatal(err)
	}

	n, err := a.MoveSubset("/ds", TagProtein, "hdd")
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Fatalf("move copied %d bytes", n)
	}
	for _, name := range []string{subsetPrefix + TagProtein, indexPrefix + TagProtein} {
		d, err := a.containers.StatDropping("/ds", name)
		if err != nil {
			t.Fatal(err)
		}
		if d.Backend != "hdd" {
			t.Fatalf("%s on %s after move, want hdd", name, d.Backend)
		}
	}
	m, err := a.Manifest("/ds")
	if err != nil {
		t.Fatal(err)
	}
	if m.Subsets[TagProtein].Backend != "hdd" || m.Placement[TagProtein] != "hdd" {
		t.Fatalf("manifest placement not updated: backend=%s placement=%s",
			m.Subsets[TagProtein].Backend, m.Placement[TagProtein])
	}
	if got, err := a.readDropping("/ds", subsetPrefix+TagProtein); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("payload differs after move (err=%v)", err)
	}
	if got := readSubsetFrames(t, a, "/ds", TagProtein); !sameFrames(got, golden) {
		t.Fatal("frames differ after move")
	}

	// Idempotent: a second move to the same target copies nothing.
	if n, err := a.MoveSubset("/ds", TagProtein, "hdd"); err != nil || n != 0 {
		t.Fatalf("repeat move: n=%d err=%v, want 0, nil", n, err)
	}
	// And back.
	if _, err := a.MoveSubset("/ds", TagProtein, "ssd"); err != nil {
		t.Fatal(err)
	}
	if got := readSubsetFrames(t, a, "/ds", TagProtein); !sameFrames(got, golden) {
		t.Fatal("frames differ after moving back")
	}
	if _, err := a.MoveSubset("/ds", TagProtein, "tape"); err == nil {
		t.Fatal("move to unknown backend succeeded")
	}
}

// TestAccessHookObservesReads checks the read-path heat signal of every
// reader, on datasets ingested with checksums and without.
func TestAccessHookObservesReads(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"verified", Options{Metrics: metrics.NewRegistry()}},
		{"raw", Options{Metrics: metrics.NewRegistry(), DisableChecksums: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pdbBytes, traj, _ := testDataset(t, 200, 3)
			a, _, _ := newADA(t, nil, tc.opts)
			if _, err := a.Ingest("/ds", pdbBytes, bytes.NewReader(traj)); err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			got := map[string]int64{}
			a.SetAccessFunc(func(logical, dropping string, n int64) {
				mu.Lock()
				got[logical+" "+dropping] += n
				mu.Unlock()
			})
			readSubsetFrames(t, a, "/ds", TagProtein)
			rr, err := a.OpenSubsetAt("/ds", TagMisc)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rr.ReadFrameAt(1); err != nil {
				t.Fatal(err)
			}
			rr.Close()
			if got["/ds "+subsetPrefix+TagProtein] <= 0 {
				t.Fatalf("streaming read recorded no heat: %v", got)
			}
			if got["/ds "+subsetPrefix+TagMisc] <= 0 {
				t.Fatalf("random-access read recorded no heat: %v", got)
			}
			// A tailing read is heat on the subset too, under the name it
			// will have once sealed, not the staging name it has now.
			li, err := a.OpenLiveIngest("/live", pdbBytes)
			if err != nil {
				t.Fatal(err)
			}
			defer li.Abort()
			if _, err := li.Append(traj); err != nil {
				t.Fatal(err)
			}
			lr, err := a.OpenLiveReader("/live", TagProtein, time.Hour)
			if err != nil {
				t.Fatal(err)
			}
			defer lr.Close()
			if _, err := lr.ReadFrameAt(1); err != nil {
				t.Fatal(err)
			}
			if got["/live "+subsetPrefix+TagProtein] <= 0 {
				t.Fatalf("tailing read recorded no heat: %v", got)
			}
		})
	}
}

// TestReadDuringMigrationByteIdentical races concurrent frame readers
// against a migration of the subset they are reading. Readers that opened
// before the move keep their handles (the store unlinks, never truncates);
// readers opening after resolve the verified copy. Every read must be
// byte-identical to the pre-migration golden run. Run under -race.
func TestReadDuringMigrationByteIdentical(t *testing.T) {
	pdbBytes, traj, _ := testDataset(t, 300, 6)
	a, _, _ := newADA(t, nil, Options{Metrics: metrics.NewRegistry()})
	if _, err := a.Ingest("/ds", pdbBytes, bytes.NewReader(traj)); err != nil {
		t.Fatal(err)
	}
	golden := readSubsetFrames(t, a, "/ds", TagProtein)

	rr, err := a.OpenSubsetAt("/ds", TagProtein)
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Close()

	const readers = 4
	results := make([][]*xtc.Frame, readers)
	errs := make([]error, readers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < rr.Frames(); i++ {
				f, err := rr.ReadFrameAt(i)
				if err != nil {
					errs[w] = fmt.Errorf("frame %d: %w", i, err)
					return
				}
				results[w] = append(results[w], f)
			}
		}(w)
	}
	close(start)
	if _, err := a.MoveSubset("/ds", TagProtein, "hdd"); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for w := 0; w < readers; w++ {
		if errs[w] != nil {
			t.Fatalf("reader %d: %v", w, errs[w])
		}
		if !sameFrames(results[w], golden) {
			t.Fatalf("reader %d saw different frames during migration", w)
		}
	}
	// A reader opened after the publish sees the migrated copy, identically.
	if got := readSubsetFrames(t, a, "/ds", TagProtein); !sameFrames(got, golden) {
		t.Fatal("post-migration reads differ")
	}
	if d, _ := a.containers.StatDropping("/ds", subsetPrefix+TagProtein); d.Backend != "hdd" {
		t.Fatalf("subset on %s, want hdd", d.Backend)
	}
}

// ingestClean commits one dataset onto fresh raw backends.
func ingestClean(t *testing.T, pdbBytes, traj []byte) (*vfs.MemFS, *vfs.MemFS) {
	t.Helper()
	ssd, hdd := vfs.NewMemFS(), vfs.NewMemFS()
	store, err := plfs.New(
		plfs.Backend{Name: "ssd", FS: ssd, Mount: "/mnt1"},
		plfs.Backend{Name: "hdd", FS: hdd, Mount: "/mnt2"},
	)
	if err != nil {
		t.Fatal(err)
	}
	a := New(store, nil, Options{Metrics: metrics.NewRegistry()})
	if _, err := a.Ingest("/ds", pdbBytes, bytes.NewReader(traj)); err != nil {
		t.Fatal(err)
	}
	return ssd, hdd
}

// adaOverFaulty rebuilds the stack with an injector between plfs and the
// backends, the way crashIngest does for ingests.
func adaOverFaulty(t *testing.T, in *faultfs.Injector, ssd, hdd *vfs.MemFS) *ADA {
	t.Helper()
	store, err := plfs.New(
		plfs.Backend{Name: "ssd", FS: faultfs.Wrap(ssd, in), Mount: "/mnt1"},
		plfs.Backend{Name: "hdd", FS: faultfs.Wrap(hdd, in), Mount: "/mnt2"},
	)
	if err != nil {
		t.Fatal(err)
	}
	return New(store, nil, Options{Metrics: metrics.NewRegistry()})
}

// countFilesNamed walks a backend tree counting files with the given name.
func countFilesNamed(t *testing.T, fsys vfs.FS, name string) int {
	t.Helper()
	n := 0
	vfs.Walk(fsys, "/", func(path string, info vfs.FileInfo) error {
		if info.Name == name {
			n++
		}
		return nil
	})
	return n
}

// TestCrashMidMigrationMatrix sweeps a kill-after-Nth-op crash across every
// backend operation of a subset migration, extending the ingest crash
// matrix to the tiering path. After each crash and recovery the container
// must resolve the subset to exactly one complete copy: reads are
// byte-identical to the pre-move golden, no staged or orphaned migration
// leftovers survive on either backend, and the manifest agrees with the
// index about placement.
func TestCrashMidMigrationMatrix(t *testing.T) {
	pdbBytes, traj, _ := testDataset(t, 200, 3)

	goldenSSD, goldenHDD := ingestClean(t, pdbBytes, traj)
	golden := rebootADA(t, goldenSSD, goldenHDD)
	goldenFrames := readSubsetFrames(t, golden, "/ds", TagProtein)
	goldenPayload, err := golden.readDropping("/ds", subsetPrefix+TagProtein)
	if err != nil {
		t.Fatal(err)
	}
	goldenIndex, err := golden.readDropping("/ds", indexPrefix+TagProtein)
	if err != nil {
		t.Fatal(err)
	}

	// Count the backend ops one migration performs, with a rule that can
	// never fire so the injector only observes.
	probe := faultfs.MustNew(1, faultfs.Rule{Kind: faultfs.KindErr, Op: "no-such-op", Nth: 1})
	{
		ssd, hdd := ingestClean(t, pdbBytes, traj)
		a := adaOverFaulty(t, probe, ssd, hdd)
		if _, err := a.MoveSubset("/ds", TagProtein, "hdd"); err != nil {
			t.Fatalf("probe move: %v", err)
		}
	}
	total := probe.Ops()
	if total < 10 {
		t.Fatalf("probe move saw only %d backend ops", total)
	}

	var moved, stayed int
	for n := int64(1); n <= total; n++ {
		in := faultfs.MustNew(1, faultfs.Rule{Kind: faultfs.KindKill, Nth: int(n)})
		ssd, hdd := ingestClean(t, pdbBytes, traj)
		// The kill is the simulated crash; the move's error is the crash
		// itself and is deliberately ignored.
		adaOverFaulty(t, in, ssd, hdd).MoveSubset("/ds", TagProtein, "hdd")

		a := rebootADA(t, ssd, hdd)
		if _, err := a.Recover(); err != nil {
			t.Fatalf("kill %d/%d: recover: %v", n, total, err)
		}

		// Exactly one complete copy of payload and frame index, no staged
		// migration leftovers anywhere.
		for _, c := range []struct {
			name   string
			golden []byte
		}{
			{subsetPrefix + TagProtein, goldenPayload},
			{indexPrefix + TagProtein, goldenIndex},
		} {
			copies := countFilesNamed(t, ssd, c.name) + countFilesNamed(t, hdd, c.name)
			if copies != 1 {
				t.Fatalf("kill %d/%d: %d copies of %s survive recovery", n, total, copies, c.name)
			}
			got, err := a.readDropping("/ds", c.name)
			if err != nil {
				t.Fatalf("kill %d/%d: read %s: %v", n, total, c.name, err)
			}
			if !bytes.Equal(got, c.golden) {
				t.Fatalf("kill %d/%d: %s differs from golden", n, total, c.name)
			}
		}
		staged := stagingPrefix + "mig." + subsetPrefix + TagProtein
		if countFilesNamed(t, ssd, staged)+countFilesNamed(t, hdd, staged) != 0 {
			t.Fatalf("kill %d/%d: staged migration copy survives recovery", n, total)
		}

		// Index consistency: every entry resolves, and the manifest agrees
		// with the index about the subset's placement.
		d, err := a.containers.StatDropping("/ds", subsetPrefix+TagProtein)
		if err != nil {
			t.Fatalf("kill %d/%d: stat: %v", n, total, err)
		}
		m, err := a.Manifest("/ds")
		if err != nil {
			t.Fatalf("kill %d/%d: manifest: %v", n, total, err)
		}
		if m.Subsets[TagProtein].Backend != d.Backend {
			t.Fatalf("kill %d/%d: manifest says %s, index says %s",
				n, total, m.Subsets[TagProtein].Backend, d.Backend)
		}
		if d.Backend == "hdd" {
			moved++
		} else {
			stayed++
		}

		if got := readSubsetFrames(t, a, "/ds", TagProtein); !sameFrames(got, goldenFrames) {
			t.Fatalf("kill %d/%d: recovered reads differ", n, total)
		}
	}
	// The sweep must exercise both outcomes: early kills leave the subset
	// in place, kills after the index re-point land it on the target.
	if moved == 0 || stayed == 0 {
		t.Fatalf("sweep over %d kill points: %d stayed, %d moved — both must occur", total, stayed, moved)
	}
	t.Logf("migration crash matrix: %d kill points, %d stayed, %d moved", total, stayed, moved)
}
