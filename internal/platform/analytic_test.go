package platform

import (
	"testing"

	"repro/internal/device"
)

func TestAnalyticModelsSSDServer(t *testing.T) {
	p, err := NewSSDServer()
	if err != nil {
		t.Fatal(err)
	}
	base, adaM := p.AnalyticModels()
	// Local NVMe: both paths identical, linear in bytes after the seek.
	n := int64(300 * device.MB)
	if base(n) != adaM(n) {
		t.Errorf("ssd server paths differ: %v vs %v", base(n), adaM(n))
	}
	want := device.NVMe256GB().ReadTime(n, 1)
	if got := base(n); got != want {
		t.Errorf("base(300MB) = %v, want %v", got, want)
	}
}

func TestAnalyticModelsCluster(t *testing.T) {
	p, err := NewSmallCluster()
	if err != nil {
		t.Fatal(err)
	}
	base, adaM := p.AnalyticModels()
	n := int64(600 * device.MB)
	// The hybrid baseline is paced by its HDD members; the ADA path reads
	// from the SSD instance and must be at least 2x faster (Fig 9a).
	if ratio := base(n) / adaM(n); ratio < 2 {
		t.Errorf("cluster ADA path only %.2fx faster", ratio)
	}
	// Striping helps: the hybrid read beats a single two-disk HDD node.
	single := device.RAID(device.WDBlue1TB(), 2, 0, "RAID0").ReadTime(n, 1)
	if base(n) >= single {
		t.Errorf("striped hybrid read (%v) not faster than one node (%v)", base(n), single)
	}
}

func TestAnalyticModelsFatNode(t *testing.T) {
	p, err := NewFatNode()
	if err != nil {
		t.Fatal(err)
	}
	base, adaM := p.AnalyticModels()
	n := int64(10 * device.GB)
	want := device.RAID50x10().ReadTime(n, 1)
	if base(n) != want || adaM(n) != want {
		t.Errorf("fat node models = %v / %v, want %v", base(n), adaM(n), want)
	}
}

func TestAnalyticModelsMonotone(t *testing.T) {
	for _, mk := range []func() (*Platform, error){NewSSDServer, NewSmallCluster, NewFatNode} {
		p, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		base, adaM := p.AnalyticModels()
		for _, model := range []ReadModel{base, adaM} {
			prev := -1.0
			for _, n := range []int64{0, 1 << 20, 64 << 20, 1 << 30, 64 << 30} {
				got := model(n)
				if got < prev {
					t.Errorf("%s: read time decreased at %d bytes", p.Name, n)
				}
				prev = got
			}
		}
	}
}
