package experiments

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/device"
	"repro/internal/sim"
	"repro/internal/workload"
)

func init() {
	register("fig15", Fig15)
	register("fig16", Fig16)
}

// fig15SLOs are the permissible-slowdown levels swept (Fig 15/16).
var fig15SLOs = []float64{1.2, 1.4, 1.6, 1.8}

// fig15Workloads is the subset shown (the paper highlights the
// swap-friendly beneficiaries plus contrasting sensitive ones).
var fig15Workloads = []string{"clip", "gg-pre", "tf-tc", "bert", "sort", "tf-incep", "kmeans", "chat-int"}

// baselineOffload measures the offloading ratio the Fastswap baseline
// sustains at the same SLO on the same backend: the untuned hierarchical
// stack degrades faster under pressure, so the sustainable offload is
// smaller — exactly the Fig 15 gap.
func baselineOffload(spec workload.Spec, slo float64, seed int64) float64 {
	return baseline.CalibratedBaselineRatio(baseline.Fastswap, device.SpecConnectX5("rdma"),
		spec, slo, seed)
}

// Fig15 reproduces Fig 15: the memory offloading ratio (1 - local ratio)
// each system sustains under SLO constraints, and the measured slowdown of
// xDM's choice.
func Fig15(o Options) []Table {
	rows := runGrid2(o, len(fig15SLOs), len(fig15Workloads), func(i, j int) []string {
		slo := fig15SLOs[i]
		name := fig15Workloads[j]
		spec := o.scaled(workload.ByName(name))
		f := baseline.Profile(spec, o.Seed)

		// Reference runtime: fully resident.
		engR := sim.NewEngine()
		envR := testbed(engR)
		ref := runTask(engR, baseline.PrepareXDM(envR, envR.Machine.Backend("rdma"), spec, f, 1.0, slo, o.Seed).Config)

		// xDM: console sizes local memory against the SLO.
		engX := sim.NewEngine()
		envX := testbed(engX)
		setup := baseline.PrepareXDM(envX, envX.Machine.Backend("rdma"), spec, f, -1, slo, o.Seed)
		stats := runTask(engX, setup.Config)
		slowdown := float64(stats.Runtime) / float64(ref.Runtime)

		base := baselineOffload(spec, slo, o.Seed)
		within := "yes"
		if slowdown > slo*1.05 {
			within = "NO"
		}
		return []string{name, pct(1 - base), pct(1 - setup.Config.LocalRatio),
			fmt.Sprintf("%.2fx", slowdown), within}
	})
	var tables []Table
	for i, slo := range fig15SLOs {
		t := Table{
			ID:    "fig15",
			Title: fmt.Sprintf("Memory offloading ratio under SLO %.1f (Fig 15)", slo),
			Columns: []string{"workload", "baseline offload", "xDM offload",
				"xDM measured slowdown", "within SLO"},
		}
		for _, row := range rows[i] {
			t.AddRow(row...)
		}
		t.Notes = append(t.Notes,
			"offload ratio = share of the footprint living in far memory; higher is better memory efficiency")
		tables = append(tables, t)
	}
	return tables
}

// fig16Mixes are the swap-friendly program proportions swept in Fig 16.
var fig16Mixes = []float64{0, 0.25, 0.5, 0.75, 1.0}

// fig16Friendly and fig16Sensitive are the two job archetypes mixed,
// equal-sized so admission effects are attributable to offloadability
// alone. The friendly archetype is an inference-style service (small hot
// set, compute between accesses: degrades slowly when offloaded); the
// sensitive archetype is a scan (every page needed: degrades immediately).
func fig16Friendly(o Options) workload.Spec {
	return o.scaled(workload.Spec{
		Name: "svc-friendly", Class: workload.AI, MaxMemGiB: 2,
		FootprintPages: 2048, AnonFraction: 1.0, Coverage: 1.0,
		SegmentLen: 512, SeqShare: 0.5, RunLen: 32,
		HotShare: 0.15, HotProb: 0.92, WriteFraction: 0.2,
		ComputePerAccess: 400 * sim.Nanosecond, MainAccesses: 10240,
		Threads: 4, SwapFeature: 'F',
	})
}

func fig16Sensitive(o Options) workload.Spec {
	return o.scaled(workload.Spec{
		Name: "scan-sensitive", Class: workload.Compute, MaxMemGiB: 2,
		FootprintPages: 2048, AnonFraction: 1.0, Coverage: 1.0,
		SegmentLen: 2048, SeqShare: 0.75, RunLen: 64,
		HotShare: 1, HotProb: 0, WriteFraction: 0.4,
		ComputePerAccess: 120 * sim.Nanosecond, MainAccesses: 10240,
		Threads: 2, SwapFeature: 'S',
	})
}

// Fig16Data runs the task-throughput grid and returns rows of
// [friendlyShare][sloIndex] = normalized throughput vs the no-far-memory
// baseline.
func Fig16Data(o Options, jobsN int) (norm [][]float64, slos []float64) {
	slos = fig15SLOs
	mkJobs := func(friendlyShare, slo float64) []cluster.App {
		jobs := make([]cluster.App, jobsN)
		for i := range jobs {
			spec := fig16Sensitive(o)
			if float64(i%4)/4.0 < friendlyShare {
				spec = fig16Friendly(o)
			}
			jobs[i] = cluster.App{Spec: spec, SLO: slo, Seed: int64(i), Cores: 1}
		}
		return jobs
	}
	serverPages := int(2.5 * float64(fig16Friendly(o).FootprintPages))
	serverCores := 16

	norm = runGrid2(o, len(fig16Mixes), len(slos), func(i, j int) float64 {
		share, slo := fig16Mixes[i], slos[j]

		// Baseline: no far memory.
		engB := sim.NewEngine()
		envB := clusterTestbed(engB)
		base := cluster.RunThroughput(envB, mkJobs(share, slo), cluster.FullMemory, serverPages, serverCores)

		engX := sim.NewEngine()
		envX := clusterTestbed(engX)
		far := cluster.RunThroughput(envX, mkJobs(share, slo), cluster.FarMemorySLO, serverPages, serverCores)
		if base.Throughput > 0 {
			return far.Throughput / base.Throughput
		}
		return 0
	})
	return norm, slos
}

// clusterTestbed is the multi-backend machine used for throughput runs.
func clusterTestbed(eng *sim.Engine) baseline.Env {
	env := testbed(eng)
	env.Machine.AttachDevice(device.SpecConnectX5("rdma2"))
	env.Machine.AttachDevice(device.SpecRemoteDRAM("dram2"))
	env.Machine.AttachDevice(device.SpecTestbedSSD("ssd2"))
	return env
}

// Fig16 reproduces Fig 16: overall task throughput versus the proportion of
// swap-friendly programs, for several SLOs, normalized to the
// no-far-memory baseline.
func Fig16(o Options) []Table {
	jobs := 24 / o.Scale
	if jobs < 8 {
		jobs = 8
	}
	norm, slos := Fig16Data(o, jobs)
	cols := []string{"friendly share"}
	for _, s := range slos {
		cols = append(cols, fmt.Sprintf("SLO %.1f", s))
	}
	t := Table{
		ID:      "fig16",
		Title:   "Task throughput vs swap-friendly proportion, normalized to no-far-memory (Fig 16)",
		Columns: cols,
	}
	for i, share := range fig16Mixes {
		row := []string{pct(share)}
		for _, v := range norm[i] {
			row = append(row, ratio(v))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"larger SLOs and more swap-friendly programs raise throughput: far memory admits more concurrent jobs per server")
	return []Table{t}
}
