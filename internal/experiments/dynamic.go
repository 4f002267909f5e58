package experiments

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/workload"
)

func init() {
	register("dynamic", Dynamic)
}

// dynamicPhases builds a long-running, phase-changing application over a
// half-file/half-anonymous footprint:
//
//	phase A (ingest): sequential scan across the whole space — file I/O
//	  dominates, so the expensive RDMA path buys almost nothing over SSD;
//	phase B (serve): latency-critical random probes of anonymous
//	  structures — RDMA territory;
//	phase A again (re-ingest).
//
// Each phase is long enough that a sub-5s warm backend switch amortizes —
// the paper's "long-running, data-intensive tasks".
func dynamicPhases(o Options) []workload.Spec {
	footprint := 16384 / o.Scale
	if footprint < 2048 {
		footprint = 2048
	}
	scan := workload.Spec{
		Name: "phase-ingest", Class: workload.Compute,
		FootprintPages: footprint, AnonFraction: 0.5, Coverage: 1.0,
		SegmentLen: footprint, SeqShare: 0.92, RunLen: 256,
		HotShare: 1, HotProb: 0, WriteFraction: 0.3,
		ComputePerAccess: 2 * sim.Microsecond,
		MainAccesses:     footprint * 120, Threads: 4,
	}
	probe := scan
	probe.Name = "phase-serve"
	probe.SeqShare, probe.RunLen = 0.1, 4
	probe.HotShare, probe.HotProb = 0.15, 0.6
	probe.SegmentLen = 64
	probe.MainAccesses = footprint * 360 // the serve phase dominates the day
	return []workload.Spec{scan, probe, scan}
}

// Dynamic demonstrates the paper's headline capability: dynamic, implicit
// backend switching on a phase-changing workload. A static system is pinned
// to one backend: static-SSD is slow in the serve phase, static-RDMA wastes
// the expensive path during ingest. The dynamic swapper tracks the phases,
// matching the best runtime at a fraction of static-RDMA's far-memory cost
// (the MEI framing: effectiveness per device cost).
func Dynamic(o Options) []Table {
	phases := dynamicPhases(o)

	runStatic := func(backend string) (sim.Duration, float64) {
		eng := sim.NewEngine()
		env := testbed(eng)
		cfg := prepareStaticPhased(env, phases, backend, o.Seed)
		rt := runTask(eng, cfg).Runtime
		cost := core.NormalizedCost(env.Machine.Backend(backend).CostPerGB()) * rt.Seconds()
		return rt, cost
	}

	runDynamic := func() (sim.Duration, float64, []baseline.SwitchRecord, string) {
		eng := sim.NewEngine()
		env := testbed(eng)
		v := env.Machine.CreateVM("dyn", 4, phases[0].FootprintPages*2,
			[]string{"ssd", "rdma", "dram"})
		eng.Run() // boot with the warm backends ready
		run := baseline.PrepareXDMDynamic(env, v, phases, o.Seed)
		taskStart := eng.Now()
		tk := task.New(run.Config)
		tl := metrics.NewTimeline(eng, 50*sim.Millisecond, func() float64 {
			return float64(tk.Stats().MajorFaults)
		})
		var stats task.Stats
		finished := false
		tk.Start(func(st task.Stats) { stats = st; finished = true; tl.Stop() })
		eng.Run()
		if !finished {
			panic("dynamic: task did not finish")
		}
		faultSpark := metrics.Sparkline(metrics.Delta(tl.Samples()), 60)

		// Far-memory cost: integrate normalized backend cost over the
		// segments between switches.
		cost := 0.0
		segStart := taskStart
		current := run.Config.SwapPath.Backend().Name()
		// Reconstruct: the initial backend is the first switch's From (or
		// the final path's backend if no switches happened).
		if len(run.Switches) > 0 {
			current = run.Switches[0].From
		}
		end := taskStart.Add(sim.Duration(stats.Runtime))
		for _, sw := range run.Switches {
			at := sw.At
			if at > end {
				at = end // a switch can complete after the task finishes
			}
			cost += core.NormalizedCost(env.Machine.Backend(current).CostPerGB()) *
				at.Sub(segStart).Seconds()
			segStart = at
			current = sw.To
		}
		if end > segStart {
			cost += core.NormalizedCost(env.Machine.Backend(current).CostPerGB()) *
				end.Sub(segStart).Seconds()
		}
		return stats.Runtime, cost, run.Switches, faultSpark
	}

	// Three independent system runs fan out as one grid: static-ssd,
	// static-rdma, and the dynamic switcher.
	type dynCell struct {
		rt       sim.Duration
		cost     float64
		switches []baseline.SwitchRecord
		spark    string
	}
	cells := runGrid(o, 3, func(i int) dynCell {
		switch i {
		case 0:
			rt, cost := runStatic("ssd")
			return dynCell{rt: rt, cost: cost}
		case 1:
			rt, cost := runStatic("rdma")
			return dynCell{rt: rt, cost: cost}
		default:
			rt, cost, switches, spark := runDynamic()
			return dynCell{rt: rt, cost: cost, switches: switches, spark: spark}
		}
	})
	ssdRT, ssdCost := cells[0].rt, cells[0].cost
	rdmaRT, rdmaCost := cells[1].rt, cells[1].cost
	dynRT, dynCost, switches, faultSpark := cells[2].rt, cells[2].cost, cells[2].switches, cells[2].spark

	bestRT := ssdRT
	if rdmaRT < bestRT {
		bestRT = rdmaRT
	}
	t := Table{
		ID:    "dynamic",
		Title: "Dynamic implicit backend switching on a phase-changing workload",
		Columns: []string{"system", "runtime", "vs best static", "FM cost (norm·s)",
			"effectiveness", "switches"},
	}
	eff := func(rt sim.Duration, cost float64) string {
		// Effectiveness = runtime-improvement over the worst / cost (MEI).
		worst := ssdRT
		if rdmaRT > worst {
			worst = rdmaRT
		}
		return f2(float64(worst) / float64(rt) / cost)
	}
	t.AddRow("static-ssd", ms(ssdRT), ratio(float64(ssdRT)/float64(bestRT)),
		f2(ssdCost), eff(ssdRT, ssdCost), "0")
	t.AddRow("static-rdma", ms(rdmaRT), ratio(float64(rdmaRT)/float64(bestRT)),
		f2(rdmaCost), eff(rdmaRT, rdmaCost), "0")
	t.AddRow("xdm-dynamic", ms(dynRT), ratio(float64(dynRT)/float64(bestRT)),
		f2(dynCost), eff(dynRT, dynCost), fmt.Sprint(len(switches)))
	for _, sw := range switches {
		t.Notes = append(t.Notes,
			fmt.Sprintf("switched %s -> %s at t=%v", sw.From, sw.To, sw.At))
	}
	if faultSpark != "" {
		t.Notes = append(t.Notes, "fault rate over time (dynamic run): "+faultSpark)
	}
	t.Notes = append(t.Notes,
		"dynamic switching tracks the best backend per phase: near-static-RDMA runtime at near-static-SSD cost (highest memory effectiveness improvement)")
	return []Table{t}
}

// prepareStaticPhased is the static strawman: the same phased workload,
// same tuning machinery, but pinned to one backend forever.
func prepareStaticPhased(env baseline.Env, phases []workload.Spec, backend string, seed int64) task.Config {
	setup := baseline.PrepareXDM(env, env.Machine.Backend(backend), phases[0], baseline.Profile(phases[0], seed), 0.5, 1.4, seed)
	cfg := setup.Config
	threads := phases[0].Threads
	var sources []workload.AccessSource
	for ti := 0; ti < threads; ti++ {
		per := make([]workload.Spec, len(phases))
		for pi, p := range phases {
			p.MainAccesses /= threads
			per[pi] = p
		}
		ps := workload.NewPhasedStream(per, seed+int64(ti)*7919)
		if ti > 0 {
			ps.SkipInit()
		}
		sources = append(sources, ps)
	}
	cfg.Sources = sources
	return cfg
}
