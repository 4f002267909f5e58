// Quickstart: build a simulated far-memory machine, run one graph workload
// under the traditional stack (Fastswap-style shared hierarchical swap) and
// under xDM (bypass path, isolated channel, tuned parameters), and compare.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/device"
	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/vm"
	"repro/internal/workload"
)

func main() {
	// The workload: breadth-first search on Ligra (Table V), scaled down 4x
	// so the example finishes instantly.
	spec := workload.ByName("lg-bfs")
	spec.FootprintPages /= 4
	spec.MainAccesses /= 4

	fmt.Printf("workload %s: %d pages, %d accesses, %d threads\n",
		spec.Name, spec.FootprintPages, spec.MainAccesses, spec.Threads)
	fmt.Println("running with half the footprint in far memory (local ratio 0.5)")
	fmt.Println()

	run := func(label string, xdm bool) task.Stats {
		// A fresh machine per run: two 10-core CPUs, PCIe 3.0 x16, one SSD
		// and one RDMA NIC (the paper's testbed shape).
		eng := sim.NewEngine()
		m := vm.NewMachine(eng, pcie.Gen3, 16, 20, 64*workload.PagesPerGiB)
		m.AttachDevice(device.SpecTestbedSSD("ssd"))
		m.AttachDevice(device.SpecConnectX5("rdma"))
		env := baseline.Env{Machine: m, FileBackend: "ssd"}

		var cfg task.Config
		if xdm {
			setup := baseline.PrepareXDM(env, m.Backend("rdma"), spec, baseline.Profile(spec, 42), 0.5, 1.4, 42)
			fmt.Printf("  xDM console decision: granularity=%d pages, width=%d, NUMA=%v\n",
				setup.Decision.GranularityPages, setup.Decision.Width, setup.Decision.NUMA)
			cfg = setup.Config
		} else {
			cfg = baseline.Prepare(baseline.Fastswap, env, m.Backend("rdma"), spec, 0.5, 42)
		}

		var stats task.Stats
		task.New(cfg).Start(func(s task.Stats) { stats = s })
		eng.Run()

		fmt.Printf("%-10s runtime=%-10v sys=%-10v major-faults=%-6d swapped=%s\n",
			label, stats.Runtime, stats.SysTime, stats.MajorFaults,
			fmt.Sprintf("%.1f MiB", stats.BytesSwapped()/(1<<20)))
		return stats
	}

	base := run("fastswap", false)
	xdm := run("xdm", true)

	fmt.Println()
	fmt.Printf("swap performance speedup (sys time): %.2fx\n",
		float64(base.SysTime)/float64(xdm.SysTime))
	fmt.Printf("end-to-end speedup:                  %.2fx\n",
		float64(base.Runtime)/float64(xdm.Runtime))
}
