package platform

import (
	"repro/internal/device"
	"repro/internal/netsim"
)

// ReadModel is the closed-form sequential-read time for n bytes from one of
// a platform's storage paths. The experiment harness uses these to
// extrapolate the evaluation to the paper's frame counts (up to ~2.6 TB of
// raw data), which cannot be materialized; the functions are built from the
// same device and link constants the live pipeline charges, and
// TestAnalyticMatchesMeasured in internal/bench pins them to the live
// pipeline's virtual times.
type ReadModel func(n int64) float64

// localRead models a whole-file sequential read from a local device.
func localRead(dev device.Device) ReadModel {
	return func(n int64) float64 { return dev.ReadTime(n, 1) }
}

// stripedRead models a parallel striped read: each of the k servers serves
// n/k bytes from its device over its link; the client NIC drains the total.
func stripedRead(devs []device.Device, link netsim.Link, client netsim.Link) ReadModel {
	return func(n int64) float64 {
		k := int64(len(devs))
		share := (n + k - 1) / k
		var worst float64
		for _, d := range devs {
			t := d.ReadTime(share, 1) + link.TransferTime(share)
			if t > worst {
				worst = t
			}
		}
		if drain := client.TransferTime(n); drain > worst {
			return drain
		}
		return worst
	}
}

// AnalyticModels returns the platform's baseline and ADA read models.
func (p *Platform) AnalyticModels() (baseline, ada ReadModel) {
	ib := netsim.InfiniBand()
	hdd2 := device.RAID(device.WDBlue1TB(), 2, 0, "RAID0")
	ssd2 := device.RAID(device.Plextor256GB(), 2, 0, "RAID0")
	switch p.Name {
	case "ssd-server":
		nvme := device.NVMe256GB()
		return localRead(nvme), localRead(nvme)
	case "small-cluster":
		baseline = stripedRead(
			[]device.Device{hdd2, hdd2, hdd2, ssd2, ssd2, ssd2}, ib, ib)
		ada = stripedRead([]device.Device{ssd2, ssd2, ssd2}, ib, ib)
		return baseline, ada
	case "fat-node":
		raid := device.RAID50x10()
		return localRead(raid), localRead(raid)
	default:
		// Unknown platform: fall back to the NVMe model.
		nvme := device.NVMe256GB()
		return localRead(nvme), localRead(nvme)
	}
}
