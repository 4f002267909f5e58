// AI inference under SLO constraints: the paper's motivating scenario for
// memory-pressure reduction (Fig 15). For each model-serving workload, the
// xDM console sizes the minimum local memory meeting the SLO via offline
// calibration, then the example verifies the measured slowdown.
//
//	go run ./examples/aiinference
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

func env(eng *sim.Engine) baseline.Env {
	m := vm.NewMachine(eng, pcie.Gen3, 16, 20, 64*workload.PagesPerGiB)
	m.AttachDevice(device.SpecTestbedSSD("ssd"))
	m.AttachDevice(device.SpecConnectX5("rdma"))
	return baseline.Env{Machine: m, FileBackend: "ssd"}
}

func main() {
	models := []string{"tf-infer", "bert", "clip", "chat-int"}
	slos := []float64{1.2, 1.5, 1.8}

	fmt.Println("xDM AI-inference demo: SLO-constrained memory offloading")
	fmt.Println()
	fmt.Printf("%-9s", "model")
	for _, slo := range slos {
		fmt.Printf("  SLO %.1f: offload (measured)", slo)
	}
	fmt.Println()

	for _, name := range models {
		spec := workload.ByName(name)
		spec.FootprintPages /= 4
		spec.MainAccesses /= 4
		if spec.SegmentLen > spec.FootprintPages {
			spec.SegmentLen = spec.FootprintPages
		}

		f := baseline.Profile(spec, 3)

		// Reference runtime with everything resident.
		engRef := sim.NewEngine()
		eRef := env(engRef)
		refSetup := baseline.PrepareXDM(eRef, eRef.Machine.Backend("rdma"), spec, f, 1.0, 1.2, 3)
		var ref task.Stats
		task.New(refSetup.Config).Start(func(s task.Stats) { ref = s })
		engRef.Run()

		fmt.Printf("%-9s", name)
		for _, slo := range slos {
			eng := sim.NewEngine()
			e := env(eng)
			// localRatio < 0: the console calibrates the minimum local
			// share for this SLO from an offline staging run.
			setup := baseline.PrepareXDM(e, e.Machine.Backend("rdma"), spec, f, -1, slo, 3)
			var stats task.Stats
			task.New(setup.Config).Start(func(s task.Stats) { stats = s })
			eng.Run()
			slowdown := float64(stats.Runtime) / float64(ref.Runtime)
			fmt.Printf("  %16.0f%% (%.2fx)   ", 100*(1-setup.Config.LocalRatio), slowdown)
		}
		fmt.Println()
	}

	fmt.Println()
	fmt.Println("looser SLOs buy deeper offloading — local memory freed for co-located tenants")
}
