package experiments

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/swap"
	"repro/internal/task"
	"repro/internal/workload"
)

func init() {
	register("ablation", Ablations)
}

// ablationSpec is the workload used by most ablations: anonymous-heavy,
// mixed sequential/random, enough pressure to exercise every mechanism.
func ablationSpec(o Options) workload.Spec {
	return o.scaled(workload.ByName("lg-bc"))
}

// AblationBypass compares the full xDM configuration against the same
// configuration forced through the hierarchical host path. Returns the
// sys-time ratio (hierarchical / bypass).
func AblationBypass(o Options) float64 {
	spec := ablationSpec(o)
	f := baseline.Profile(spec, o.Seed)
	run := func(hierarchical bool) sim.Duration {
		eng := sim.NewEngine()
		env := testbed(eng)
		setup := baseline.PrepareXDM(env, env.Machine.Backend("rdma"), spec, f, 0.5, 1.4, o.Seed)
		cfg := setup.Config
		if hierarchical {
			cfg.SwapPath = swap.NewHierarchicalPath(eng, env.Machine.Backend("rdma"),
				cfg.SwapPath.Channel(), env.Machine.HostStage())
		}
		return runTask(eng, cfg).SysTime
	}
	return float64(run(true)) / float64(run(false))
}

// AblationIsolation compares per-VM channels against a shared channel for
// two co-located xDM tasks. Returns the mean swap-in latency ratio
// (shared / isolated).
func AblationIsolation(o Options) float64 {
	run := func(shared bool) float64 {
		eng := sim.NewEngine()
		env := testbed(eng)
		sharedCh := swap.NewChannel(eng, "shared", 4)
		var paths []*swap.Path
		for i := 0; i < 2; i++ {
			spec, seed := ablationSpec(o), o.Seed+int64(i)
			setup := baseline.PrepareXDM(env, env.Machine.Backend("rdma"), spec, baseline.Profile(spec, seed), 0.5, 1.4, seed)
			cfg := setup.Config
			if shared {
				cfg.SwapPath = swap.NewPath(eng, env.Machine.Backend("rdma"), sharedCh)
			}
			paths = append(paths, cfg.SwapPath)
			task.New(cfg).Start(nil)
		}
		eng.Run()
		var sum float64
		var n uint64
		for _, p := range paths {
			sum += p.InLatency.Mean() * float64(p.InLatency.Count())
			n += p.InLatency.Count()
		}
		return sum / float64(n)
	}
	return run(true) / run(false)
}

// AblationMEI compares the console's MEI backend choice against the
// anti-choice (lowest MEI) for a workload pair, returning the runtime ratio
// (anti / MEI).
func AblationMEI(o Options) float64 {
	spec := ablationSpec(o)
	eng := sim.NewEngine()
	env := testbed(eng)
	opts := []core.BackendOption{
		baseline.OptionFor(env.Machine.Backend("ssd")),
		baseline.OptionFor(env.Machine.Backend("rdma")),
		baseline.OptionFor(env.Machine.Backend("dram")),
	}
	f := baseline.Profile(spec, o.Seed)
	ranked := core.SelectBackend(nil, opts, f, spec.ComputePerAccess)
	best, worst := ranked[0].Name, ranked[len(ranked)-1].Name

	measure := func(backend string) sim.Duration {
		eng := sim.NewEngine()
		env := testbed(eng)
		setup := baseline.PrepareXDM(env, env.Machine.Backend(backend), spec, f, 0.5, 1.4, o.Seed)
		return runTask(eng, setup.Config).Runtime
	}
	return float64(measure(worst)) / float64(measure(best))
}

// AblationKnob runs xDM with one console knob disabled and returns the
// sys-time ratio (disabled / full). Knobs: "granularity", "width",
// "adaptive".
func AblationKnob(o Options, knob string) float64 {
	spec := ablationSpec(o)
	f := baseline.Profile(spec, o.Seed)
	run := func(disable string) sim.Duration {
		eng := sim.NewEngine()
		env := testbed(eng)
		setup := baseline.PrepareXDM(env, env.Machine.Backend("rdma"), spec, f, 0.5, 1.4, o.Seed)
		cfg := setup.Config
		switch disable {
		case "granularity":
			cfg.GranularityPages = 1
			cfg.OnEpoch = nil
		case "width":
			env.Machine.Backend("rdma").SetWidth(1)
			cfg.OnEpoch = nil
		case "adaptive":
			cfg.AdaptiveWindow = false
		}
		return runTask(eng, cfg).SysTime
	}
	return float64(run(knob)) / float64(run(""))
}

// AblationWarmStart compares Algorithm 1 placement latency with a
// pre-booted warm VM pool against an empty fleet (cold creates). Returns
// both times: warm placement is effectively instant, cold pays a VM boot.
func AblationWarmStart(o Options) (warm, cold sim.Duration) {
	measure := func(warm bool) sim.Duration {
		eng := sim.NewEngine()
		env := testbed(eng)
		if warm {
			for _, name := range env.Machine.BackendNames() {
				env.Machine.CreateVM("vm-"+name, 4, 8*workload.PagesPerGiB, []string{name})
			}
			eng.Run()
		}
		start := eng.Now()
		d := cluster.NewDispatcher(env)
		readyAt := sim.Time(-1)
		app := cluster.App{Spec: ablationSpec(o), SLO: 1.4, Seed: o.Seed, Cores: 1}
		d.Dispatch(app, baseline.Profile(app.Spec, app.Seed),
			func(cluster.Placement) { readyAt = eng.Now() })
		eng.Run()
		if readyAt < 0 {
			panic("ablation: dispatch never became ready")
		}
		return readyAt.Sub(start)
	}
	return measure(true), measure(false)
}

// Ablations renders the design-choice ablation study (DESIGN.md §4).
func Ablations(o Options) []Table {
	t := Table{
		ID:      "ablation",
		Title:   "Design-choice ablations: cost of removing each xDM mechanism",
		Columns: []string{"mechanism removed", "metric", "degradation"},
	}
	// Each row is an independent measurement (each builds its own engines),
	// so the study fans out over the worker pool as one grid.
	jobs := []struct {
		mech, metric string
		run          func() string
	}{
		{"host bypass (use hierarchical path)", "sys time",
			func() string { return ratio(AblationBypass(o)) }},
		{"channel isolation (share one channel)", "swap-in latency",
			func() string { return ratio(AblationIsolation(o)) }},
		{"MEI backend selection (use worst backend)", "runtime",
			func() string { return ratio(AblationMEI(o)) }},
		{"granularity tuning (fixed 4K)", "sys time",
			func() string { return ratio(AblationKnob(o, "granularity")) }},
		{"width tuning (single channel)", "sys time",
			func() string { return ratio(AblationKnob(o, "width")) }},
		{"adaptive fetch window (kernel-style cluster)", "sys time",
			func() string { return ratio(AblationKnob(o, "adaptive")) }},
		{"warm-start VM pool (cold creates)", "time-to-placement",
			func() string {
				warm, cold := AblationWarmStart(o)
				return fmt.Sprintf("%v -> %v", warm, cold)
			}},
	}
	for i, cell := range runGrid(o, len(jobs), func(i int) string { return jobs[i].run() }) {
		t.AddRow(jobs[i].mech, jobs[i].metric, cell)
	}
	t.Notes = append(t.Notes, "each row removes exactly one mechanism from the full system; >1.00x = the mechanism helps")
	return []Table{t}
}
