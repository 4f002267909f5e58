// Dynamic switching demo: the paper's headline capability. A long-running
// application changes phase (sequential ingest → random serving →
// re-ingest); xDM's switchable swapper notices from the live page trace and
// performs warm backend switches mid-run, without stopping the task.
//
//	go run ./examples/dynamicswitch
package main

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/vm"
	"repro/internal/workload"
)

func main() {
	const footprint = 4096

	ingest := workload.Spec{
		Name: "ingest", Class: workload.Compute,
		FootprintPages: footprint, AnonFraction: 0.5, Coverage: 1.0,
		SegmentLen: footprint, SeqShare: 0.92, RunLen: 256,
		HotShare: 1, HotProb: 0, WriteFraction: 0.3,
		ComputePerAccess: 2 * sim.Microsecond,
		MainAccesses:     footprint * 120, Threads: 4,
	}
	serve := ingest
	serve.Name = "serve"
	serve.SeqShare, serve.RunLen = 0.1, 4
	serve.HotShare, serve.HotProb = 0.15, 0.6
	serve.SegmentLen = 64
	serve.MainAccesses = footprint * 360
	phases := []workload.Spec{ingest, serve, ingest}

	eng := sim.NewEngine()
	m := vm.NewMachine(eng, pcie.Gen3, 16, 20, 64*workload.PagesPerGiB)
	m.AttachDevice(device.SpecTestbedSSD("ssd"))
	m.AttachDevice(device.SpecConnectX5("rdma"))
	m.AttachDevice(device.SpecRemoteDRAM("dram"))
	env := baseline.Env{Machine: m, FileBackend: "ssd"}

	v := m.CreateVM("app-vm", 4, footprint*2, []string{"ssd", "rdma", "dram"})
	eng.Run()
	fmt.Printf("VM booted with warm backends %v; active: %s\n",
		[]string{"ssd", "rdma", "dram"}, v.ActiveBackend())

	run := baseline.PrepareXDMDynamic(env, v, phases, 11)
	fmt.Printf("phases: %s -> %s -> %s (one process, behaviour changes at runtime)\n\n",
		phases[0].Name, phases[1].Name, phases[2].Name)

	tk := task.New(run.Config)
	tl := metrics.NewTimeline(eng, 50*sim.Millisecond, func() float64 {
		return float64(tk.Stats().MajorFaults)
	})
	var stats task.Stats
	tk.Start(func(s task.Stats) { stats = s; tl.Stop() })
	taskStart := eng.Now()
	eng.Run()

	fmt.Printf("runtime: %v   faults: %d   swapped: %.1f MiB\n",
		stats.Runtime, stats.MajorFaults, stats.BytesSwapped()/(1<<20))
	for _, sw := range run.Switches {
		fmt.Printf("warm switch %s -> %s at +%v (task kept running)\n",
			sw.From, sw.To, sw.At.Sub(taskStart))
	}
	fmt.Printf("\nfault rate over the run:  %s\n", metrics.Sparkline(metrics.Delta(tl.Samples()), 64))
	fmt.Println("(the rate jumps when the serve phase starts; the switch follows within seconds)")
}
