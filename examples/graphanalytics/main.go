// Graph analytics on a memory-pressured node: run the paper's graph suite
// (Ligra and GridGraph workloads, Table V) with xDM's offline profiling,
// MEI-driven backend selection, and per-workload parameter tuning — and
// show what the configuration console saw and decided for each job.
//
//	go run ./examples/graphanalytics
package main

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/vm"
	"repro/internal/workload"
)

func main() {
	graphSuite := []string{"gg-pre", "gg-bfs", "lg-bfs", "lg-bc", "lg-comp", "lg-mis"}

	fmt.Println("xDM graph-analytics demo: MEI backend selection + parameter tuning")
	fmt.Println("node: SSD + RDMA + host-DRAM far memory, local ratio 0.5")
	fmt.Println()
	fmt.Printf("%-8s  %-5s  %-5s  %-5s  %-7s  %-5s  %-5s  %-10s  %s\n",
		"job", "anon", "seq", "hot", "backend", "gran", "width", "runtime", "sys")

	for _, name := range graphSuite {
		spec := workload.ByName(name)
		spec.FootprintPages /= 8
		spec.MainAccesses /= 8
		if spec.SegmentLen > spec.FootprintPages {
			spec.SegmentLen = spec.FootprintPages
		}

		eng := sim.NewEngine()
		m := vm.NewMachine(eng, pcie.Gen3, 16, 20, 64*workload.PagesPerGiB)
		m.AttachDevice(device.SpecTestbedSSD("ssd"))
		m.AttachDevice(device.SpecConnectX5("rdma"))
		m.AttachDevice(device.SpecRemoteDRAM("dram"))
		env := baseline.Env{Machine: m, FileBackend: "ssd"}

		// Offline profiling: fuse the page-trace features (Fig 9a).
		f := baseline.Profile(spec, 7)

		// Implicit switching: MEI-ordered backend preference (Sec IV-A2).
		opts := []core.BackendOption{
			baseline.OptionFor(m.Backend("ssd")),
			baseline.OptionFor(m.Backend("rdma")),
			baseline.OptionFor(m.Backend("dram")),
		}
		best := core.SelectBackend(nil, opts, f, spec.ComputePerAccess)[0].Name

		// Run on the chosen backend with the full console configuration.
		setup := baseline.PrepareXDM(env, m.Backend(best), spec, f, 0.5, 1.4, 7)
		var stats task.Stats
		task.New(setup.Config).Start(func(s task.Stats) { stats = s })
		eng.Run()

		fmt.Printf("%-8s  %.2f  %.2f  %.2f  %-7s  %-5d  %-5d  %-10v  %v\n",
			name, f.AnonRatio, f.SeqRatio, f.HotRatio, best,
			setup.Decision.GranularityPages, setup.Decision.Width,
			stats.Runtime, stats.SysTime)
	}

	fmt.Println()
	fmt.Println("anonymous-heavy traversals land on rdma/dram; file-heavy grid scans stay on ssd")
}
