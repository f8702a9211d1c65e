package core

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/pdb"
	"repro/internal/plfs"
	"repro/internal/vfs"
	"repro/internal/xtc"
)

// randomDataset builds a structure with random category block layout and a
// matching short trajectory with clustered coordinates.
func randomDataset(rng *rand.Rand) (*pdb.Structure, []*xtc.Frame, []byte, []byte, error) {
	s := &pdb.Structure{}
	resFor := map[pdb.Category]string{
		pdb.Protein: "ALA", pdb.Water: "SOL", pdb.Lipid: "POPC",
		pdb.Ion: "SOD", pdb.Ligand: "LIG",
	}
	for b := 0; b < rng.Intn(8)+2; b++ {
		cat := pdb.Category(rng.Intn(5))
		res := resFor[cat]
		het := cat == pdb.Ion || cat == pdb.Ligand
		for j := 0; j < rng.Intn(30)+3; j++ {
			s.Atoms = append(s.Atoms, pdb.Atom{
				Serial: len(s.Atoms) + 1, Name: "X", ResName: res,
				ChainID: 'A', ResSeq: b + 1, HetAtm: het,
				X: rng.Float64() * 40, Y: rng.Float64() * 40, Z: rng.Float64() * 40,
				Element: "C", Category: cat,
			})
		}
	}
	// Trajectory: small jitters around the structure coordinates.
	nframes := rng.Intn(4) + 1
	var frames []*xtc.Frame
	pos := make([]xtc.Vec3, s.NAtoms())
	for i, a := range s.Atoms {
		pos[i] = xtc.Vec3{float32(a.X / 10), float32(a.Y / 10), float32(a.Z / 10)}
	}
	var traj bytes.Buffer
	w := xtc.NewWriter(&traj)
	for k := 0; k < nframes; k++ {
		f := &xtc.Frame{Step: int32(k), Precision: 1000, Coords: make([]xtc.Vec3, len(pos))}
		for i := range pos {
			for d := 0; d < 3; d++ {
				pos[i][d] += float32(rng.NormFloat64() * 0.01)
			}
			f.Coords[i] = pos[i]
		}
		frames = append(frames, f.Clone())
		if err := w.WriteFrame(f); err != nil {
			return nil, nil, nil, nil, err
		}
	}
	var pdbBuf bytes.Buffer
	if err := pdb.Write(&pdbBuf, s); err != nil {
		return nil, nil, nil, nil, err
	}
	return s, frames, pdbBuf.Bytes(), traj.Bytes(), nil
}

// TestQuickIngestRoundTrip is the end-to-end invariant: for random category
// layouts and granularities, ingest + OpenFull reconstructs every frame
// within quantization error, and the subset partition covers every atom
// exactly once.
func TestQuickIngestRoundTrip(t *testing.T) {
	f := func(seed int64, fine bool) bool {
		rng := rand.New(rand.NewSource(seed))
		structure, frames, pdbBytes, traj, err := randomDataset(rng)
		if err != nil {
			return false
		}
		containers, err := plfs.New(
			plfs.Backend{Name: "ssd", FS: vfs.NewMemFS(), Mount: "/m1"},
			plfs.Backend{Name: "hdd", FS: vfs.NewMemFS(), Mount: "/m2"},
		)
		if err != nil {
			return false
		}
		g := Coarse
		if fine {
			g = Fine
		}
		a := New(containers, nil, Options{Granularity: g})
		rep, err := a.Ingest("/q", pdbBytes, bytes.NewReader(traj))
		if err != nil || rep.Frames != len(frames) {
			return false
		}
		// Partition invariant.
		m, err := a.Manifest("/q")
		if err != nil {
			return false
		}
		total := 0
		for _, sub := range m.Subsets {
			total += sub.NAtoms
		}
		if total != structure.NAtoms() {
			return false
		}
		// Reconstruction invariant.
		fr, err := a.OpenFull("/q")
		if err != nil {
			return false
		}
		defer fr.Close()
		tol := 2*xtc.MaxError(1000) + 1e-5
		for k := 0; ; k++ {
			full, err := fr.ReadFrame()
			if err == io.EOF {
				return k == len(frames)
			}
			if err != nil || k >= len(frames) {
				return false
			}
			for i := range full.Coords {
				for d := 0; d < 3; d++ {
					if math.Abs(float64(full.Coords[i][d]-frames[k].Coords[i][d])) > tol {
						return false
					}
				}
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickParallelReaderMatchesSerial: for random datasets,
// xtc.AheadReader yields frame-for-frame exactly what the serial xtc.Reader
// yields.
func TestQuickParallelReaderMatchesSerial(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		_, _, _, traj, err := randomDataset(rng)
		if err != nil {
			return false
		}
		want, err := xtc.NewReader(bytes.NewReader(traj)).ReadAll()
		if err != nil {
			return false
		}
		pr := xtc.NewAheadReader(bytes.NewReader(traj))
		defer pr.Close()
		got, err := pr.ReadAll()
		if err != nil || len(got) != len(want) {
			return false
		}
		for k := range want {
			g, w := got[k], want[k]
			if g.Step != w.Step || g.Time != w.Time || g.Box != w.Box ||
				g.Precision != w.Precision || len(g.Coords) != len(w.Coords) {
				return false
			}
			for i := range w.Coords {
				if g.Coords[i] != w.Coords[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
