package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"maps"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/pdb"
	"repro/internal/vfs"
)

// allocated reports the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// typedLiveErr reports whether err is one a caller of the live read side can
// tell apart: a head that does not parse, a dropping or tag that is not
// there, an index that disagrees with the head, or a closed reader.
func typedLiveErr(err error) bool {
	var syntax *json.SyntaxError
	var typ *json.UnmarshalTypeError
	return errors.As(err, &syntax) || errors.As(err, &typ) ||
		errors.Is(err, vfs.ErrNotExist) || errors.Is(err, vfs.ErrCorrupted) ||
		errors.Is(err, ErrUnknownTag) || errors.Is(err, ErrLiveClosed)
}

// FuzzLiveHead writes arbitrary bytes as the live.json of a live dataset
// holding four frames, then runs the read side over it: LiveHead,
// OpenLiveReader on the "p" subset, Frames and a short WaitFrames. Rule: no
// panic, allocation bounded by the input's length, and every error typed.
func FuzzLiveHead(f *testing.F) {
	pdbBytes, traj, _ := testDataset(f, 200, 4)
	head := func(edit func(*LiveHead)) []byte {
		h := LiveHead{Logical: "/ds", Version: 2, Frames: 4, NAtoms: 226, Granularity: "coarse",
			Subsets: map[string]LiveSubset{
				TagProtein: {NAtoms: 10, Bytes: 400, Backend: "ssd", Ranges: "0-9"},
				TagMisc:    {NAtoms: 216, Bytes: 4000, Backend: "hdd", Ranges: "10-225"},
			}}
		edit(&h)
		data, err := json.Marshal(&h)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	for _, seed := range [][]byte{
		head(func(*LiveHead) {}),
		head(func(h *LiveHead) { h.Sealed = true }),
		head(func(h *LiveHead) { h.Frames = -3 }),
		head(func(h *LiveHead) { h.Frames = 1 << 40 }),
		head(func(h *LiveHead) { delete(h.Subsets, TagProtein) }),
		[]byte(`{"frames": 1e400}`),
		[]byte(`{"subsets": {"p": 7}}`),
		[]byte(`{"frames": 2, "subsets": {"p": {}}`),
		[]byte("null"),
		[]byte("{}"),
		nil,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input []byte) {
		a, _, _ := newADA(t, nil, Options{Metrics: metrics.NewRegistry()})
		li, err := a.OpenLiveIngest("/ds", pdbBytes)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := li.Append(traj); err != nil {
			t.Fatal(err)
		}
		waitHead(t, a, "/ds", li.Head().Version) // the fuzzed head replaces the landed one
		if err := a.containers.PutDropping("/ds", liveHeadName, a.containers.Backends()[0], input); err != nil {
			t.Fatal(err)
		}
		var errs []error
		got := allocated(func() {
			_, err := a.LiveHead("/ds")
			errs = append(errs, err)
			lr, err := a.OpenLiveReader("/ds", TagProtein, time.Millisecond)
			errs = append(errs, err)
			if err != nil {
				return
			}
			defer lr.Close()
			lr.Frames()
			_, err = lr.WaitFrames(5, 3*time.Millisecond)
			errs = append(errs, err)
		})
		if limit := uint64(32*len(input) + 1<<20); got > limit {
			t.Fatalf("reading a %d-byte head allocated %d, limit %d", len(input), got, limit)
		}
		for i, err := range errs {
			if err != nil && !typedLiveErr(err) {
				t.Fatalf("call %d over head %q: untyped error %v", i, strings.TrimSpace(string(input)), err)
			}
		}
	})
}

// FuzzJournal writes arbitrary bytes as the ingest.journal of /ds beside
// subsets holding four frames (written by a live session, head landed)
// and runs each way back over it on its own copy: RecoverDataset,
// ResumeIngest, and ResumeLiveIngest followed by Seal. Rule: no panic,
// allocation bounded by the input's length, and a RecoveryAction or a typed
// error — a corrupt journal or prefix, a missing dropping, or a journal the
// resume cannot continue.
func FuzzJournal(f *testing.F) {
	pdbBytes, traj, _ := testDataset(f, 200, 4)
	setup := func(t testing.TB) *ADA {
		a, _, _ := newADA(t, nil, Options{Metrics: metrics.NewRegistry()})
		li, err := a.OpenLiveIngest("/ds", pdbBytes)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := li.Append(traj); err != nil {
			t.Fatal(err)
		}
		waitHead(t, a, "/ds", li.Head().Version)
		return a
	}
	recs, err := setup(f).readJournal("/ds")
	if err != nil || len(recs) != 2 || recs[1].Frames != 4 {
		f.Fatalf("live session journal = %+v, %v; want begin and a checkpoint at frame 4", recs, err)
	}
	journal := func(edit func(begin, ck *journalRecord)) []byte {
		begin, ck := recs[0], recs[1]
		ck.Subsets = maps.Clone(ck.Subsets)
		edit(&begin, &ck)
		var out []byte
		for _, rec := range []*journalRecord{&begin, &ck} {
			data, err := json.Marshal(rec)
			if err != nil {
				f.Fatal(err)
			}
			out = append(append(out, data...), '\n')
		}
		return out
	}
	for _, seed := range [][]byte{
		journal(func(*journalRecord, *journalRecord) {}),
		journal(func(begin, _ *journalRecord) { begin.Live = false }),
		journal(func(_, ck *journalRecord) { ck.Subsets[TagProtein] = journalSubset{Bytes: -1} }),
		journal(func(_, ck *journalRecord) { ck.Subsets[TagProtein] = journalSubset{Bytes: 1 << 40} }),
		journal(func(_, ck *journalRecord) { ck.Frames = 1 << 40 }),
		journal(func(_, ck *journalRecord) { ck.Subsets = nil }),
		journal(func(begin, _ *journalRecord) { begin.Tags[0].Tag = "a/b" }),
		append(journal(func(*journalRecord, *journalRecord) {}),
			`{"type":"commit","staged":["subset.m","subset.p"],"manifest":{"logical":"/ds"}}`+"\n"...),
		[]byte(`{"type":"ckpt","frames":2}` + "\n"),
		[]byte("{\"type\":\"begin\",\"live\":true"),
		nil,
	} {
		f.Add(seed)
	}
	ways := []func(a *ADA) error{
		func(a *ADA) error { _, err := a.RecoverDataset("/ds"); return err },
		func(a *ADA) error { _, err := a.ResumeIngest("/ds", pdbBytes, bytes.NewReader(traj)); return err },
		func(a *ADA) error {
			li, err := a.ResumeLiveIngest("/ds", pdbBytes)
			if err == nil {
				_, err = li.Seal()
			}
			return err
		},
	}
	f.Fuzz(func(t *testing.T, input []byte) {
		for i, way := range ways {
			a := setup(t)
			if err := a.writeDropping("/ds", droppingJournal, a.containers.Backends()[0], input); err != nil {
				t.Fatal(err)
			}
			var err error
			got := allocated(func() { err = way(a) })
			if limit := uint64(32*len(input) + 1<<20); got > limit {
				t.Fatalf("way %d over a %d-byte journal allocated %d, limit %d", i, len(input), got, limit)
			}
			if err != nil && !errors.Is(err, vfs.ErrCorrupted) && !errors.Is(err, vfs.ErrNotExist) &&
				!errors.Is(err, ErrNotResumable) {
				t.Fatalf("way %d over journal %q: untyped error %v", i, strings.TrimSpace(string(input)), err)
			}
		}
	})
}

// typedStoredErr reports whether err is one a reader of a stored dropping
// can tell apart: JSON that does not parse or does not fit the schema, a
// dropping or tag that is not there, or content that parses but does not
// hold together.
func typedStoredErr(err error) bool {
	var syntax *json.SyntaxError
	var typ *json.UnmarshalTypeError
	return errors.As(err, &syntax) || errors.As(err, &typ) ||
		errors.Is(err, vfs.ErrNotExist) || errors.Is(err, vfs.ErrCorrupted) ||
		errors.Is(err, ErrUnknownTag)
}

// FuzzManifest writes arbitrary bytes as the manifest.json of a committed
// four-frame dataset and runs what reads it: unmarshalManifest, then
// OpenSubset on the "p" subset with every frame read, and Fsck. Rule: no
// panic, allocation bounded by the input's length, and every error typed.
func FuzzManifest(f *testing.F) {
	pdbBytes, traj, _ := testDataset(f, 200, 4)
	golden, _, _ := newADA(f, nil, Options{Metrics: metrics.NewRegistry()})
	if _, err := golden.Ingest("/ds", pdbBytes, bytes.NewReader(traj)); err != nil {
		f.Fatal(err)
	}
	m, err := golden.Manifest("/ds")
	if err != nil {
		f.Fatal(err)
	}
	manifest := func(edit func(*Manifest)) []byte {
		c := *m
		c.Subsets = maps.Clone(m.Subsets)
		c.Checksums = maps.Clone(m.Checksums)
		edit(&c)
		data, err := c.marshal()
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	sub := func(edit func(*Subset)) func(*Manifest) {
		return func(c *Manifest) {
			s := c.Subsets[TagProtein]
			edit(&s)
			c.Subsets[TagProtein] = s
		}
	}
	for _, seed := range [][]byte{
		manifest(func(*Manifest) {}),
		manifest(sub(func(s *Subset) { s.Ranges = "9-3" })),
		manifest(sub(func(s *Subset) { s.Ranges = "0-9223372036854775807,5-7" })),
		manifest(sub(func(s *Subset) { s.Ranges = "-4" })),
		manifest(sub(func(s *Subset) { s.Bytes = -1 })),
		manifest(sub(func(s *Subset) { s.Bytes = 1 << 50 })),
		manifest(sub(func(s *Subset) { s.Backend = "nowhere" })),
		manifest(sub(func(s *Subset) { s.CRC32C = 1 })),
		manifest(func(c *Manifest) { delete(c.Subsets, TagProtein) }),
		manifest(func(c *Manifest) { c.Checksums["../escape"] = 7 }),
		[]byte(`{"subsets": {"p": 7}}`),
		[]byte(`{"frames": 1e400}`),
		[]byte("null"),
		nil,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input []byte) {
		a, _, _ := newADA(t, nil, Options{Metrics: metrics.NewRegistry()})
		if _, err := a.Ingest("/ds", pdbBytes, bytes.NewReader(traj)); err != nil {
			t.Fatal(err)
		}
		if err := a.containers.PutDropping("/ds", droppingManifest, a.containers.Backends()[0], input); err != nil {
			t.Fatal(err)
		}
		var errs []error
		got := allocated(func() {
			_, err := unmarshalManifest(input)
			errs = append(errs, err)
			sr, err := a.OpenSubset("/ds", TagProtein)
			errs = append(errs, err)
			if err == nil {
				for {
					if _, err := sr.ReadFrame(); err != nil {
						if err != io.EOF {
							errs = append(errs, err)
						}
						break
					}
				}
				sr.Close()
			}
			_, err = a.Fsck("/ds")
			errs = append(errs, err)
		})
		if limit := uint64(32*len(input) + 1<<20); got > limit {
			t.Fatalf("reading a %d-byte manifest allocated %d, limit %d", len(input), got, limit)
		}
		for i, err := range errs {
			if err != nil && !typedStoredErr(err) {
				t.Fatalf("call %d over manifest %q: untyped error %v", i, strings.TrimSpace(string(input)), err)
			}
		}
	})
}

// FuzzLabels holds the label file parser to the rule for bytes from
// outside, its range-list parser included: UnmarshalLabels over arbitrary
// bytes must not panic, must allocate in proportion to the input, and must
// return a label set or a typed error.
func FuzzLabels(f *testing.F) {
	pdbBytes, _, _ := testDataset(f, 200, 1)
	structure, err := pdb.Parse(bytes.NewReader(pdbBytes))
	if err != nil {
		f.Fatal(err)
	}
	good, err := BuildLabels(structure).Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	for _, seed := range []string{
		`{"natoms": 10, "ranges": {"protein": "0-4,4-10"}}`,
		`{"natoms": 10, "ranges": {"protein": "0-10", "water": "0-10"}}`,
		`{"natoms": 3, "ranges": {"protein": "9-3"}}`,
		`{"natoms": 3, "ranges": {"protein": "--3"}}`,
		`{"natoms": 3, "ranges": {"protein": "0-3,"}}`,
		`{"natoms": 3, "ranges": {"sugar": "0-3"}}`,
		`{"natoms": -1, "ranges": {"protein": "0-9223372036854775807,1-2"}}`,
		`{"natoms": 4, "ranges": {"protein": "6-7,4-5,2-3,0-1"}}`,
		`{"natoms": 1e400}`,
		`{"ranges": ["0-1"]}`,
		`null`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, input []byte) {
		var ls *LabelSet
		var err error
		got := allocated(func() { ls, err = UnmarshalLabels(input) })
		if limit := uint64(32*len(input) + 1<<20); got > limit {
			t.Fatalf("parsing %d bytes allocated %d, limit %d", len(input), got, limit)
		}
		if (ls == nil) == (err == nil) {
			t.Fatalf("label set %v, err %v: want exactly one", ls != nil, err)
		}
		if err != nil && !typedStoredErr(err) {
			t.Fatalf("labels %q: untyped error %v", strings.TrimSpace(string(input)), err)
		}
	})
}
