package experiments

import (
	"repro/internal/baseline"
	"repro/internal/device"
	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/swap"
	"repro/internal/task"
	"repro/internal/vm"
	"repro/internal/workload"
)

func init() {
	register("tab7", Table7)
	register("fig14", Fig14)
}

// fig14Ratio is the shared memory pressure for throughput runs.
const fig14Ratio = 0.5

// rdma8G is the Table IV xDM-RDMA member card: 4 × 8 GB/s = 32 GB/s.
func rdma8G(name string) device.Spec {
	s := device.SpecConnectX5(name)
	s.Bandwidth = 0.8 * s.Bandwidth
	s.ChannelBandwidth = 0.8 * s.ChannelBandwidth
	return s
}

// fig14System describes one compared system configuration (Table IV).
type fig14System struct {
	name    string
	sys     baseline.System
	devices []device.Spec
}

func fig14Systems() []fig14System {
	return []fig14System{
		{name: "linux-swap", sys: baseline.LinuxSwap,
			devices: []device.Spec{device.SpecDiskArray()}},
		{name: "tmo", sys: baseline.TMO,
			devices: []device.Spec{device.SpecNVMeSSD("nvme")}},
		{name: "fastswap", sys: baseline.Fastswap,
			devices: []device.Spec{device.SpecConnectX5("rdma")}},
		{name: "xmempod", sys: baseline.XMemPod,
			devices: []device.Spec{device.SpecRemoteDRAM("dram"), device.SpecConnectX5("rdma")}},
		{name: "xdm-ssd", sys: baseline.XDM,
			devices: []device.Spec{device.SpecNVMeSSD("nvme0"), device.SpecNVMeSSD("nvme1"),
				device.SpecNVMeSSD("nvme2"), device.SpecNVMeSSD("nvme3")}},
		{name: "xdm-rdma", sys: baseline.XDM,
			devices: []device.Spec{rdma8G("rdma0"), rdma8G("rdma1"), rdma8G("rdma2"), rdma8G("rdma3")}},
		{name: "xdm-hetero", sys: baseline.XDM,
			devices: []device.Spec{device.SpecNVMeSSD("nvme0"), device.SpecNVMeSSD("nvme1"),
				rdma8G("rdma0"), rdma8G("rdma1")}},
	}
}

// fig14Run executes one workload under one system and reports swap data
// throughput in bytes/sec.
func fig14Run(o Options, fs fig14System, spec workload.Spec) float64 {
	eng := sim.NewEngine()
	m := vm.NewMachine(eng, pcie.Gen4, 16, 20, 64*workload.PagesPerGiB)
	// Node storage for file-backed pages is always present.
	m.AttachDevice(device.SpecTestbedSSD("node-ssd"))
	for _, d := range fs.devices {
		m.AttachDevice(d)
	}
	env := baseline.Env{Machine: m, FileBackend: "node-ssd"}

	var cfg task.Config
	if fs.sys == baseline.XDM {
		members := make([]*swap.DeviceBackend, 0, len(fs.devices))
		for _, d := range fs.devices {
			members = append(members, m.Backend(d.Name))
		}
		agg := swap.NewAggregateBackend(eng, fs.name, members...)
		cfg = baseline.PrepareXDM(env, agg, spec, baseline.Profile(spec, o.Seed), fig14Ratio, 1.4, o.Seed).Config
	} else if fs.sys == baseline.XMemPod {
		agg := swap.NewAggregateBackend(eng, "dram+rdma",
			m.Backend(fs.devices[0].Name), m.Backend(fs.devices[1].Name))
		cfg = baseline.Prepare(fs.sys, env, agg, spec, fig14Ratio, o.Seed)
	} else {
		cfg = baseline.Prepare(fs.sys, env, m.Backend(fs.devices[0].Name), spec, fig14Ratio, o.Seed)
	}
	stats := runTask(eng, cfg)
	if stats.Runtime <= 0 {
		return 0
	}
	// Useful swap throughput: demand fetches, consumed prefetches, and
	// write-backs. Counting raw transferred bytes would reward systems for
	// wasted (never-consumed) readahead traffic.
	useful := float64(stats.MajorFaults+stats.PrefetchHits+stats.PagesOut) * 4096
	return useful / stats.Runtime.Seconds()
}

// Fig14 reproduces Fig 14: swap data throughput per workload across the
// compared systems, normalized to TMO on a single SSD.
func Fig14(o Options) []Table {
	systems := fig14Systems()
	cols := []string{"workload"}
	for _, fs := range systems {
		cols = append(cols, fs.name)
	}
	t := Table{
		ID:      "fig14",
		Title:   "Swap data throughput normalized to TMO (Fig 14)",
		Columns: cols,
	}
	specs := workload.Specs()
	raw := runGrid2(o, len(specs), len(systems), func(i, j int) float64 {
		return fig14Run(o, systems[j], o.scaled(specs[i]))
	})
	for i, spec := range specs {
		row := []string{o.scaled(spec).Name}
		var tmo float64
		for j, fs := range systems {
			if fs.name == "tmo" {
				tmo = raw[i][j]
			}
		}
		for _, v := range raw[i] {
			if tmo > 0 {
				row = append(row, f2(v/tmo))
			} else {
				row = append(row, "-")
			}
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"xDM variants aggregate multiple backends (Table IV: 32 GB/s lineups); values are data-swapped-per-second relative to TMO on one NVMe SSD")
	return []Table{t}
}

// Table7 reproduces Table VII: per-backend read/write bandwidth and PCIe
// saturation when xDM drives multiple backends at once.
func Table7(o Options) []Table {
	t := Table{
		ID:      "tab7",
		Title:   "PCIe bandwidth of xDM on different backends (Table VII)",
		Columns: []string{"backend set", "device R/W GB/s (max)", "slot util", "root-complex util", "PCIe full?"},
	}
	run := func(name string, specs []device.Spec) []string {
		eng := sim.NewEngine()
		// Table VII's testbed: PCIe 3.0 host; slots sized per device.
		host := device.NewHost(eng, pcie.Gen3, 16)
		var devs []*device.Device
		for _, s := range specs {
			devs = append(devs, host.Attach(s))
		}
		perDev := int64(2<<30) / int64(o.Scale)
		const chunk = 4 * 1024 * 1024
		for _, d := range devs {
			for off := int64(0); off < perDev; off += chunk {
				d.Submit(device.Op{Size: chunk, Sequential: true, Write: off%2 == 0}, nil)
			}
		}
		eng.Run()
		secs := eng.Now().Seconds()
		maxDev, maxSlot := 0.0, 0.0
		for _, d := range devs {
			bw := d.TotalBytes() / secs / 1e9
			if bw > maxDev {
				maxDev = bw
			}
			if u := d.SlotLink().Utilization(eng.Now()); u > maxSlot {
				maxSlot = u
			}
		}
		rootUtil := host.Root.Utilization(eng.Now())
		full := "no"
		if maxSlot > 0.85 || rootUtil > 0.85 {
			full = "full"
		}
		return []string{name, f2(maxDev), pct(maxSlot), pct(rootUtil), full}
	}
	sets := []struct {
		name  string
		specs []device.Spec
	}{
		{"4x RDMA (xDM-RDMA)", []device.Spec{rdma8G("r0"), rdma8G("r1"), rdma8G("r2"), rdma8G("r3")}},
		{"4x SSD (xDM-SSD)", []device.Spec{device.SpecNVMeSSD("s0"), device.SpecNVMeSSD("s1"),
			device.SpecNVMeSSD("s2"), device.SpecNVMeSSD("s3")}},
		{"1x RDMA (single-backend)", []device.Spec{device.SpecConnectX5("r0")}},
	}
	for _, row := range runGrid(o, len(sets), func(i int) []string {
		return run(sets[i].name, sets[i].specs)
	}) {
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"multiple backends reach each device's bandwidth ceiling and saturate their PCIe slots; a single backend leaves the fabric mostly idle")
	return []Table{t}
}
