// Data-center orchestration: Algorithm 1 end to end. A stream of mixed
// applications arrives at a multi-backend server; the dispatcher extracts
// page features, selects backends by MEI, places each app on a warm VM
// (switching or creating VMs as needed), and runs it. Afterwards the
// example reports placement statistics, task throughput versus the
// no-far-memory baseline, and the cluster-level MBE balancing headroom.
//
//	go run ./examples/datacenter
package main

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/clustertrace"
	"repro/internal/device"
	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/vm"
	"repro/internal/workload"
)

func newEnv(eng *sim.Engine) baseline.Env {
	m := vm.NewMachine(eng, pcie.Gen4, 16, 40, 128*workload.PagesPerGiB)
	m.AttachDevice(device.SpecTestbedSSD("ssd0"))
	m.AttachDevice(device.SpecTestbedSSD("ssd1"))
	m.AttachDevice(device.SpecConnectX5("rdma0"))
	m.AttachDevice(device.SpecConnectX5("rdma1"))
	m.AttachDevice(device.SpecRemoteDRAM("dram0"))
	return baseline.Env{Machine: m, FileBackend: "ssd0"}
}

func scaled(name string, div int) workload.Spec {
	s := workload.ByName(name)
	s.FootprintPages /= div
	s.MainAccesses /= div
	if s.SegmentLen > s.FootprintPages {
		s.SegmentLen = s.FootprintPages
	}
	return s
}

func main() {
	fmt.Println("xDM data-center demo: Algorithm 1 dispatch over a VM fleet")
	fmt.Println()

	// --- Part 1: Algorithm 1 placement over a warm pool ---
	eng := sim.NewEngine()
	env := newEnv(eng)
	for _, b := range []string{"ssd0", "rdma0", "dram0"} {
		env.Machine.CreateVM("warm-"+b, 4, 8*workload.PagesPerGiB, []string{b})
	}
	eng.Run()

	d := cluster.NewDispatcher(env)
	apps := []string{"lg-bfs", "gg-bfs", "bert", "chat-int", "kmeans", "tf-infer"}
	fmt.Printf("%-9s  %-8s  %-11s  %-9s  %s\n", "app", "backend", "placement", "local", "runtime")
	completed := 0
	for i, name := range apps {
		spec := scaled(name, 16)
		app := cluster.App{Spec: spec, SLO: 1.5, Seed: int64(i), Cores: 1}
		f := baseline.Profile(spec, app.Seed)
		p := d.Dispatch(app, f, nil)
		if p.Via == cluster.ViaNone {
			fmt.Printf("%-9s  rejected (no capacity)\n", name)
			continue
		}
		setup := baseline.PrepareXDM(env, env.Machine.Backend(p.Backend), spec, f,
			p.LocalRatio, app.SLO, app.Seed)
		pl := p
		nm := name
		task.New(setup.Config).Start(func(s task.Stats) {
			completed++
			d.Release(pl)
			fmt.Printf("%-9s  %-8s  %-11s  %8.0f%%  %v\n",
				nm, pl.Backend, pl.Via, 100*pl.LocalRatio, s.Runtime)
		})
	}
	eng.Run()
	fmt.Printf("\ncompleted %d/%d apps; placements: %v, rejected %d\n\n",
		completed, len(apps), d.Placed, d.Rejected)

	// --- Part 2: task throughput vs the no-far-memory baseline (Fig 16) ---
	// An inference-service archetype: hot-concentrated with compute between
	// accesses, so deep offloading stays within the SLO.
	svc := workload.Spec{
		Name: "svc", Class: workload.AI, MaxMemGiB: 2,
		FootprintPages: 2048, AnonFraction: 1.0, Coverage: 1.0,
		SegmentLen: 512, SeqShare: 0.5, RunLen: 32,
		HotShare: 0.15, HotProb: 0.92, WriteFraction: 0.2,
		ComputePerAccess: 400 * sim.Nanosecond, MainAccesses: 10240,
		Threads: 4, SwapFeature: 'F',
	}
	jobs := make([]cluster.App, 12)
	for i := range jobs {
		jobs[i] = cluster.App{Spec: svc, SLO: 1.6, Seed: int64(i), Cores: 1}
	}
	serverPages := int(2.5 * float64(svc.FootprintPages))

	engB := sim.NewEngine()
	base := cluster.RunThroughput(newEnv(engB), jobs, cluster.FullMemory, serverPages, 16)
	engX := sim.NewEngine()
	far := cluster.RunThroughput(newEnv(engX), jobs, cluster.FarMemorySLO, serverPages, 16)
	fmt.Printf("task throughput: no-far-memory %.0f jobs/h (parallel %d) vs xDM %.0f jobs/h (parallel %d) -> %.2fx\n\n",
		base.Throughput, base.PeakParallel, far.Throughput, far.PeakParallel,
		far.Throughput/base.Throughput)

	// --- Part 3: cluster-scale memory balancing headroom (Fig 19) ---
	for _, profile := range []clustertrace.Profile{clustertrace.Alibaba2017(), clustertrace.Alibaba2018()} {
		utils := clustertrace.Snapshot(profile, 2000, 9)
		bestA, bestV := 0.0, 0.0
		for a := 0.2; a <= 0.9; a += 0.05 {
			if v := cluster.MBEImprovement(utils, a, a); v > bestV {
				bestV, bestA = v, a
			}
		}
		fmt.Printf("%s: mean util %.1f%%, best MBE improvement %.1f%% at threshold %.2f\n",
			profile.Name, 100*clustertrace.Mean(utils), 100*bestV, bestA)
	}
}
