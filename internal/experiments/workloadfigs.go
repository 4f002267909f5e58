package experiments

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/workload"
)

func init() {
	register("fig5b", Fig5b)
	register("fig8", Fig8)
	register("fig10", Fig10)
	register("fig11", Fig11)
	register("fig12", Fig12)
}

// Fig5b reproduces Fig 5(b): end-to-end latency as the allocated I/O width
// grows, for graph (lg-bfs, sp-pg) and AI inference (bert, clip) workloads
// on the SSD path. Sequential-heavy tasks gain; random-heavy tasks lose to
// per-channel overhead.
func Fig5b(o Options) []Table {
	t := Table{
		ID:      "fig5b",
		Title:   "Runtime vs I/O width on SSD far memory (Fig 5b), normalized to width 1",
		Columns: []string{"workload", "w=1", "w=2", "w=4", "w=8", "w=16"},
	}
	widths := []int{1, 2, 4, 8, 16}
	names := []string{"lg-bfs", "sp-pg", "bert", "clip"}
	runtimes := runGrid2(o, len(names), len(widths), func(i, j int) sim.Duration {
		spec := o.scaled(workload.ByName(names[i]))
		eng := sim.NewEngine()
		env := testbed(eng)
		be := env.Machine.Backend("ssd")
		setup := baseline.PrepareXDM(env, be, spec, baseline.Profile(spec, o.Seed), 0.5, 1.4, o.Seed)
		// Pin the width under test; disable online width retuning by
		// fixing granularity-only epochs.
		cfg := setup.Config
		cfg.OnEpoch = nil
		cfg.EpochAccesses = 0
		be.SetWidth(widths[j])
		return runTask(eng, cfg).Runtime
	})
	for i, name := range names {
		base := runtimes[i][0] // width 1
		row := []string{name}
		for _, rt := range runtimes[i] {
			row = append(row, f2(float64(rt)/float64(base)))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"tasks with long sequential runs benefit from added I/O width; random-dominated tasks pay per-channel overhead")
	return []Table{t}
}

// Fig8 reproduces Fig 8: workloads with more file-backed pages prefer SSD
// backends, anonymous-heavy workloads prefer RDMA. Reported: measured
// runtime on each backend plus the console's MEI preference.
func Fig8(o Options) []Table {
	t := Table{
		ID:      "fig8",
		Title:   "Backend preference by anonymous/file-backed ratio (Fig 8)",
		Columns: []string{"workload", "anon ratio", "runtime SSD", "runtime RDMA", "rdma gain", "MEI pick"},
	}
	fig8Names := []string{"lg-bc", "sort", "gg-bfs", "lpk"}
	for _, row := range runGrid(o, len(fig8Names), func(i int) []string {
		name := fig8Names[i]
		spec := o.scaled(workload.ByName(name))
		var runtimes []sim.Duration
		for _, backend := range []string{"ssd", "rdma"} {
			eng := sim.NewEngine()
			env := testbed(eng)
			// Fixed memory pressure (half the footprint local) so backend
			// sensitivity is visible for every workload.
			setup := baseline.PrepareXDM(env, env.Machine.Backend(backend), spec, baseline.Profile(spec, o.Seed), 0.5, 1.4, o.Seed)
			runtimes = append(runtimes, runTask(eng, setup.Config).Runtime)
		}
		// Offline-prepared FM path preference (staging-run MEI).
		priority, _ := baseline.CalibratedBackendPriority(map[string]device.Spec{
			"ssd":  device.SpecTestbedSSD("ssd"),
			"rdma": device.SpecConnectX5("rdma"),
		}, spec, o.Seed)
		return []string{name, f2(spec.AnonFraction), ms(runtimes[0]), ms(runtimes[1]),
			ratio(float64(runtimes[0]) / float64(runtimes[1])), priority[0]}
	}) {
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"large RDMA gains justify the pricier backend for anonymous-heavy tasks; file-heavy tasks stay on SSD")
	return []Table{t}
}

// Fig10 reproduces Fig 10: the data-segment fragment-ratio landscape per
// workload, from the offline page traces.
func Fig10(o Options) []Table {
	t := Table{
		ID:      "fig10",
		Title:   "Data segments and fragment ratios per workload (Fig 10)",
		Columns: []string{"workload", "touched pages", "fragment ratio", "mean segment (pages)"},
	}
	for _, spec := range workload.Specs() {
		s := o.scaled(spec)
		f := baseline.Profile(s, o.Seed)
		segLen := 0.0
		if f.FragmentRatio > 0 {
			segLen = 1 / f.FragmentRatio
		}
		t.AddRow(s.Name, fmt.Sprint(f.TouchedPages), fmt.Sprintf("%.4f", f.FragmentRatio), f2(segLen))
	}
	return []Table{t}
}

// Fig11 reproduces Fig 11: sequential vs random page behaviour — the
// max-sequential-run and sequential-access share signals driving the I/O
// width decision.
func Fig11(o Options) []Table {
	t := Table{
		ID:      "fig11",
		Title:   "Sequential and random accessed page behaviours (Fig 11)",
		Columns: []string{"workload", "seq share", "max seq run (pages)", "hot ratio", "width pick"},
	}
	for _, spec := range workload.Specs() {
		s := o.scaled(spec)
		f := baseline.Profile(s, o.Seed)
		eng := sim.NewEngine()
		env := testbed(eng)
		_, w := core.TuneTransferBudget(baseline.OptionFor(env.Machine.Backend("ssd")), f,
			s.FootprintPages/2)
		t.AddRow(s.Name, f2(f.SeqRatio), fmt.Sprint(f.MaxSeqRunPages), f2(f.HotRatio), fmt.Sprint(w))
	}
	return []Table{t}
}

// Fig12 reproduces Fig 12: sensitivity to NUMA data distribution. Tasks run
// with local memory split across two sockets under bind-local,
// prefer-remote, and interleave placements.
func Fig12(o Options) []Table {
	t := Table{
		ID:      "fig12",
		Title:   "Impact of NUMA data distribution (Fig 12), runtime normalized to bind-local",
		Columns: []string{"workload", "bind-local", "interleave", "prefer-remote", "sensitivity"},
	}
	fig12Names := []string{"stream", "lpk", "kmeans", "bert"}
	fig12Policies := []mem.NUMAPolicy{mem.BindLocal, mem.Interleave, mem.PreferRemote}
	runtimes := runGrid2(o, len(fig12Names), len(fig12Policies), func(i, j int) sim.Duration {
		spec := o.scaled(workload.ByName(fig12Names[i]))
		eng := sim.NewEngine()
		env := testbed(eng)
		// Fully resident (this figure isolates local-memory placement,
		// not swap); each socket holds ~60% of the footprint, so
		// placement decisions are visible.
		setup := baseline.PrepareXDM(env, env.Machine.Backend("rdma"), spec, baseline.Profile(spec, o.Seed), 1.0, 1.4, o.Seed)
		cfg := setup.Config
		// Each socket can hold the whole footprint: bind-local is pure
		// same-socket, prefer-remote is pure cross-socket.
		cfg.Topo = mem.NewTopology(spec.FootprintPages + 1)
		cfg.NUMAPolicy = fig12Policies[j]
		return runTask(eng, cfg).Runtime
	})
	for i, name := range fig12Names {
		base := float64(runtimes[i][0])
		t.AddRow(name, f2(1.0), f2(float64(runtimes[i][1])/base), f2(float64(runtimes[i][2])/base),
			pct(float64(runtimes[i][2])/base-1))
	}
	t.Notes = append(t.Notes,
		"memory-intensive tasks degrade on remote placement; compute-bound tasks barely notice — NUMA nodes are usable spill room for insensitive apps")
	return []Table{t}
}
