package experiments

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Custom runs user-supplied workload specs (see workload.LoadSpecs) through
// the full pipeline: offline profiling, console decision, and a
// baseline-vs-xDM comparison on the console's chosen backend. This is the
// downstream entry point for evaluating your own workload shapes
// (`xdmsim -custom specs.json`).
func Custom(specs []workload.Spec, o Options) []Table {
	t := Table{
		ID:    "custom",
		Title: "Custom workloads through the xDM pipeline",
		Columns: []string{"workload", "anon", "seq", "hot", "backend", "gran", "width",
			"baseline sys", "xDM sys", "speedup"},
	}
	for _, row := range runGrid(o, len(specs), func(i int) []string {
		spec := o.scaled(specs[i])
		f := baseline.Profile(spec, o.Seed)

		// MEI backend selection over the standard testbed catalog.
		engP := sim.NewEngine()
		envP := testbed(engP)
		var opts []core.BackendOption
		for _, name := range []string{"ssd", "rdma", "dram"} {
			opts = append(opts, baseline.OptionFor(envP.Machine.Backend(name)))
		}
		ranked := core.SelectBackend(nil, opts, f, spec.ComputePerAccess)
		best := "rdma"
		if len(ranked) > 0 {
			best = ranked[0].Name
		}

		// Baseline on the chosen backend.
		engB := sim.NewEngine()
		envB := testbed(engB)
		sys := baseline.SystemsForBackend(envB.Machine.Backend(best).Kind().String())
		cfgB := baseline.Prepare(sys, envB, envB.Machine.Backend(best), spec, 0.5, o.Seed)
		statsB := runTask(engB, cfgB)

		// xDM on the same backend.
		engX := sim.NewEngine()
		envX := testbed(engX)
		setup := baseline.PrepareXDM(envX, envX.Machine.Backend(best), spec, f, 0.5, 1.4, o.Seed)
		statsX := runTask(engX, setup.Config)

		return []string{spec.Name, f2(f.AnonRatio), f2(f.SeqRatio), f2(f.HotRatio), best,
			fmt.Sprint(setup.Decision.GranularityPages), fmt.Sprint(setup.Decision.Width),
			ms(statsB.SysTime), ms(statsX.SysTime),
			ratio(float64(statsB.SysTime) / float64(statsX.SysTime))}
	}) {
		t.AddRow(row...)
	}
	return []Table{t}
}
