package platform

import (
	"bytes"
	"fmt"
	"io"
	"path"

	"repro/internal/core"
	"repro/internal/gpcr"
	"repro/internal/mdsim"
	"repro/internal/pdb"
	"repro/internal/vfs"
	"repro/internal/xtc"
)

// Dataset is a staged workload: the structure file and trajectory stored in
// every representation the evaluation's scenarios read from.
type Dataset struct {
	Logical        string // ADA container name
	PDBPath        string // .pdb on the traditional FS
	CompressedPath string // compressed .xtc on the traditional FS ("C-")
	RawPath        string // decompressed .xtc on the traditional FS ("D-")
	PDB            []byte
	Frames         int
	NAtoms         int
	ProteinAtoms   int
	Compressed     int64
	Raw            int64
	Ingest         *core.IngestReport
}

// Stage generates a deterministic trajectory for the given system
// configuration and stores it three ways: compressed and raw on the
// platform's traditional file system, and ingested through ADA (which
// decompresses, labels, splits, and dispatches the subsets).
func (p *Platform) Stage(name string, cfg gpcr.Config, frames int) (*Dataset, error) {
	if frames <= 0 {
		return nil, fmt.Errorf("cluster: stage %s: need at least one frame", name)
	}
	sys, err := cfg.Build()
	if err != nil {
		return nil, fmt.Errorf("cluster: stage %s: %w", name, err)
	}
	var pdbBuf bytes.Buffer
	if err := pdb.Write(&pdbBuf, sys.Structure); err != nil {
		return nil, fmt.Errorf("cluster: stage %s: %w", name, err)
	}
	cats := make([]pdb.Category, sys.Structure.NAtoms())
	for i := range cats {
		cats[i] = sys.Structure.Atoms[i].Category
	}
	simr, err := mdsim.New(sys.Coords, cats, sys.Box, mdsim.DefaultParams())
	if err != nil {
		return nil, fmt.Errorf("cluster: stage %s: %w", name, err)
	}

	ds := &Dataset{
		Logical:        "/" + name,
		PDBPath:        path.Join("/data", name+".pdb"),
		CompressedPath: path.Join("/data", name+".xtc"),
		RawPath:        path.Join("/data", name+".raw.xtc"),
		PDB:            pdbBuf.Bytes(),
		Frames:         frames,
		NAtoms:         sys.Structure.NAtoms(),
		ProteinAtoms:   sys.Config.ProteinAtoms(),
	}

	if err := p.Traditional.MkdirAll("/data"); err != nil {
		return nil, err
	}
	if err := vfs.WriteFile(p.Traditional, ds.PDBPath, ds.PDB); err != nil {
		return nil, err
	}
	cf, err := p.Traditional.Create(ds.CompressedPath)
	if err != nil {
		return nil, err
	}
	rf, err := p.Traditional.Create(ds.RawPath)
	if err != nil {
		cf.Close()
		return nil, err
	}
	// The compressed stream is also buffered for the ADA ingest pass.
	var compressedBuf bytes.Buffer
	cw := xtc.NewWriter(io.MultiWriter(cf, &compressedBuf))
	rw := xtc.NewRawWriter(rf)
	for i := 0; i < frames; i++ {
		f := simr.Step()
		if err := cw.WriteFrame(f); err != nil {
			cf.Close()
			rf.Close()
			return nil, fmt.Errorf("cluster: stage %s frame %d: %w", name, i, err)
		}
		if err := rw.WriteFrame(f); err != nil {
			cf.Close()
			rf.Close()
			return nil, fmt.Errorf("cluster: stage %s frame %d: %w", name, i, err)
		}
	}
	if err := cf.Close(); err != nil {
		return nil, err
	}
	if err := rf.Close(); err != nil {
		return nil, err
	}
	ds.Compressed = cw.BytesWritten()
	ds.Raw = rw.BytesWritten()

	rep, err := p.ADA.Ingest(ds.Logical, ds.PDB, bytes.NewReader(compressedBuf.Bytes()))
	if err != nil {
		return nil, fmt.Errorf("cluster: stage %s: %w", name, err)
	}
	ds.Ingest = rep

	// Staging is setup, not measurement: rewind the accounting so the
	// scenario runs start from a clean profile.
	p.Env.Profile.Reset()
	return ds, nil
}
