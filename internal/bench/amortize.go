package bench

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/platform"
)

// runAmortize quantifies Section 2.1's "constant burden" argument: the
// traditional workflow pays decompression and filtering on every study
// session, while ADA pays pre-processing once at ingest (on storage-node
// CPUs) and then serves cheap tagged reads. The table reports cumulative
// time on the SSD-server model after k sessions at 5,006 frames, and the
// break-even session count.
func runAmortize(cfg *Config) (*Table, error) {
	p, err := platform.NewSSDServer()
	if err != nil {
		return nil, err
	}
	dm := cfg.Model
	const frames = 5006
	c, r, _ := dm.Sizes(frames)
	subsets := int64(dm.SubsetsRawPerFrame * float64(frames))

	// One-time ADA ingest on the storage node: decompress + categorize the
	// stream, then write every subset to the NVMe backends.
	storage := p.StorageCost
	factor := storage.CPUFactor
	if factor <= 0 {
		factor = 1
	}
	ingest := float64(c)/(storage.DecompressBps*factor) +
		float64(r)/(storage.CategorizeBps*factor) +
		device.NVMe256GB().WriteTime(subsets, 1)

	perTraditional := RunAnalytic(p, dm, CBase, frames).Turnaround
	perADA := RunAnalytic(p, dm, ADAProtein, frames).Turnaround

	t := &Table{
		ID:    "ext-amortize",
		Title: "Extension: cumulative time over repeated study sessions (5,006 frames, SSD server)",
		Columns: []string{"Sessions", "C-" + p.TraditionalName + " total (s)",
			"ADA ingest+loads (s)", "ADA saves"},
	}
	breakEven := -1
	for k := 1; k <= 10; k++ {
		trad := float64(k) * perTraditional
		adaTotal := ingest + float64(k)*perADA
		saves := "no"
		if adaTotal < trad {
			saves = "yes"
			if breakEven < 0 {
				breakEven = k
			}
		}
		t.AddRow(fmt.Sprintf("%d", k), fmtSec(trad), fmtSec(adaTotal), saves)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("one-time ADA ingest: %.2fs on storage-node CPUs; per-session: C %.2fs vs ADA %.2fs",
			ingest, perTraditional, perADA),
		fmt.Sprintf("break-even at %d session(s); the paper: pre-processing is 'a constant burden when biologists repeatedly study' (§2.1)", breakEven))
	return t, nil
}
