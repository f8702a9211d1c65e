// Package platform assembles the paper's three evaluation platforms — the
// NVMe SSD server (Section 4.1), the nine-node hybrid OrangeFS cluster
// (Section 4.2, Table 4), and the 1 TB fat-node server (Section 4.3,
// Table 5) — from the device, network, file-system, and middleware
// substrates, with cost models calibrated so the virtual-time results
// reproduce the paper's shapes.
package platform

import (
	"fmt"

	"repro/internal/blockfs"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/netsim"
	"repro/internal/plfs"
	"repro/internal/pvfs"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/vmd"
)

// Platform is one assembled evaluation environment.
type Platform struct {
	Name            string
	TraditionalName string // the baseline file system's display name
	Env             *sim.Env
	PowerWatts      float64 // total draw of the nodes in a turnaround window
	MemCapacity     int64   // compute-node memory
	ComputeCost     vmd.ComputeCost
	StorageCost     core.StorageCost
	Traditional     vfs.FS // baseline FS holding compressed and raw copies
	ADA             *core.ADA
	Params          [][2]string // platform spec sheet (Tables 4 and 5)
}

// GB is a convenience re-export for memory sizing.
const GB = device.GB

// NewSSDServer builds the Section 4.1 platform: ext4 on an NVMe SSD,
// 16 GB DRAM, one Xeon E5-2603 v4. ADA dispatches subsets across the
// server's two NVMe drives.
func NewSSDServer() (*Platform, error) {
	env := sim.NewEnv()
	nvme := device.NVMe256GB()

	ext4 := blockfs.New("ext4", nvme, env)
	ada0 := blockfs.New("ada-nvme0", nvme, env)
	ada1 := blockfs.New("ada-nvme1", nvme, env)
	containers, err := plfs.New(
		plfs.Backend{Name: "nvme0", FS: ada0, Mount: "/mnt1"},
		plfs.Backend{Name: "nvme1", FS: ada1, Mount: "/mnt2"},
	)
	if err != nil {
		return nil, err
	}
	storage := core.DefaultStorageCost()
	compute := vmd.DefaultComputeCost()
	return &Platform{
		Name:            "ssd-server",
		TraditionalName: "ext4",
		Env:             env,
		PowerWatts:      400,
		MemCapacity:     16 * GB,
		ComputeCost:     compute,
		StorageCost:     storage,
		Traditional:     ext4,
		ADA:             core.New(containers, env, core.Options{Cost: storage}),
		Params: [][2]string{
			{"CPU", "Intel Xeon E5-2603 v4 @1.70GHz"},
			{"Memory", "16 GB DRAM"},
			{"Storage", "2x 256GB NVMe SSD"},
			{"Operating system", "CentOS 6.10"},
			{"File system", "ext4"},
		},
	}, nil
}

// NewSmallCluster builds the Section 4.2 platform: nine nodes — three
// compute, three HDD storage nodes (two WD 1 TB drives each) and three SSD
// storage nodes (two Plextor 256 GB drives each) — with two independent
// PVFS instances. Following Fig 9a ("ADA only uses the underlying SSD
// storage nodes to transfer data"), ADA places its decompressed subsets on
// the SSD file system; the HDD file system keeps the original compressed
// dataset as the archival copy.
func NewSmallCluster() (*Platform, error) {
	env := sim.NewEnv()
	ib := netsim.InfiniBand()

	hddServer := func(name string) pvfs.Server {
		// Two drives per node striped internally: 2x bandwidth.
		return pvfs.Server{Name: name, Dev: device.RAID(device.WDBlue1TB(), 2, 0, "RAID0"), Link: ib}
	}
	ssdServer := func(name string) pvfs.Server {
		return pvfs.Server{Name: name, Dev: device.RAID(device.Plextor256GB(), 2, 0, "RAID0"), Link: ib}
	}

	hybrid, err := pvfs.New(pvfs.Config{
		Label: "pvfs",
		Servers: []pvfs.Server{
			hddServer("hdd1"), hddServer("hdd2"), hddServer("hdd3"),
			ssdServer("ssd1"), ssdServer("ssd2"), ssdServer("ssd3"),
		},
		ClientLink: ib,
	}, env)
	if err != nil {
		return nil, err
	}
	ssdFS, err := pvfs.New(pvfs.Config{
		Label:      "pvfs-ssd",
		Servers:    []pvfs.Server{ssdServer("ssd1"), ssdServer("ssd2"), ssdServer("ssd3")},
		ClientLink: ib,
	}, env)
	if err != nil {
		return nil, err
	}
	hddFS, err := pvfs.New(pvfs.Config{
		Label:      "pvfs-hdd",
		Servers:    []pvfs.Server{hddServer("hdd1"), hddServer("hdd2"), hddServer("hdd3")},
		ClientLink: ib,
	}, env)
	if err != nil {
		return nil, err
	}
	containers, err := plfs.New(
		plfs.Backend{Name: "ssd", FS: ssdFS, Mount: "/mnt1"},
		plfs.Backend{Name: "hdd", FS: hddFS, Mount: "/mnt2"},
	)
	if err != nil {
		return nil, err
	}
	// Every decompressed subset goes to the SSD instance (see doc comment).
	placement := core.Placement{}
	for _, tag := range []string{core.TagProtein, core.TagMisc, "protein", "water", "lipid", "ion", "ligand", "other"} {
		placement[tag] = "ssd"
	}
	storage := core.DefaultStorageCost()
	compute := vmd.DefaultComputeCost()
	return &Platform{
		Name:            "small-cluster",
		TraditionalName: "PVFS",
		Env:             env,
		PowerWatts:      400 * 9, // Table 4: average power per node 400 W
		MemCapacity:     16 * GB,
		ComputeCost:     compute,
		StorageCost:     storage,
		Traditional:     hybrid,
		ADA:             core.New(containers, env, core.Options{Cost: storage, Placement: placement}),
		Params: [][2]string{
			{"CPU", "Intel Xeon E5-2603 v4 @1.70GHz"},
			{"Operating system", "CentOS 6.10 w/ 2.6.32-754 kernel"},
			{"File system", "PVFS (OrangeFS 2.8.5)"},
			{"Node quantity", "9"},
			{"Node arrangement", "compute node x3, HDD node x3, SSD node x3"},
			{"HDD", "Western Digital 1TB SATA, 126 MB/s max, x6"},
			{"SSD", "Plextor 256GB PCIe, 3000/1000 MB/s peak, x6"},
			{"Average power per node", "400 W"},
		},
	}, nil
}

// FatNodeUsableMemory is the usable compute memory on the fat node: 1,007 GB
// installed minus OS and file-cache overhead. Its value makes the Fig 10
// kill points exact: 979.8 GB of raw frames (1,876,800 frames) exceeds it
// while 816.5 GB (1,564,000 frames) fits.
const FatNodeUsableMemory = 950 * GB

// NewFatNode builds the Section 4.3 platform: XFS on a ten-disk RAID-50
// array, 1 TB memory, four E7-4820 v3 sockets. The per-core clock budget of
// the E7 pipeline is lower than the calibration platform's, captured as a
// CPU factor < 1 (calibrated against the paper's ~400-minute turnaround at
// 1,564,000 frames).
func NewFatNode() (*Platform, error) {
	env := sim.NewEnv()
	raid := device.RAID50x10()

	xfs := blockfs.New("xfs", raid, env)
	adaFS := blockfs.New("ada-raid", raid, env)
	containers, err := plfs.New(
		plfs.Backend{Name: "raid", FS: adaFS, Mount: "/mnt1"},
	)
	if err != nil {
		return nil, err
	}
	const cpuFactor = 0.45
	storage := core.DefaultStorageCost()
	storage.CPUFactor = cpuFactor
	compute := vmd.DefaultComputeCost()
	compute.CPUFactor = cpuFactor
	return &Platform{
		Name:            "fat-node",
		TraditionalName: "XFS",
		Env:             env,
		PowerWatts:      850, // 4 sockets + 1 TB DDR4 + 10 spindles under load
		MemCapacity:     FatNodeUsableMemory,
		ComputeCost:     compute,
		StorageCost:     storage,
		Traditional:     xfs,
		ADA:             core.New(containers, env, core.Options{Cost: storage}),
		Params: [][2]string{
			{"CPU", "Intel Xeon E7-4820 v3 @1.90GHz, 40 cores (4 sockets)"},
			{"Main memory", "DDR4 1,007 GB"},
			{"Operating system", "CentOS 7.3 w/ 3.10 kernel"},
			{"File system", "XFS"},
			{"Disk array", "WD HDD 1TB x10, RAID 50"},
		},
	}, nil
}

// NewSession returns a VMD session on this platform's compute node.
func (p *Platform) NewSession() *vmd.Session {
	return vmd.NewSession(p.Env, p.MemCapacity, p.ComputeCost)
}

// NewMeter returns an energy meter over this platform's clock at its power.
func (p *Platform) NewMeter() *sim.EnergyMeter {
	return sim.NewEnergyMeter(p.Env.Clock, p.PowerWatts)
}

// String summarizes the platform.
func (p *Platform) String() string {
	return fmt.Sprintf("%s (baseline %s, %.0f W, %.0f GB compute memory)",
		p.Name, p.TraditionalName, p.PowerWatts, float64(p.MemCapacity)/GB)
}
