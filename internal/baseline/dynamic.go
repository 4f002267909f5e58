package baseline

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
)

// SwitchRecord logs one dynamic backend switch.
type SwitchRecord struct {
	At   sim.Time
	From string
	To   string
}

// DynamicRun is an xDM run with the full *dynamic and implicit* switching
// loop active: every epoch the console re-fuses the live page trace,
// re-ranks the machine's backends by MEI, and — when the preference changes
// persistently — performs a warm backend switch on the hosting VM while the
// task keeps running. This is the paper's headline capability ("previous
// works never implement a static multi-path FM system, not to mention a
// dynamic one").
type DynamicRun struct {
	Config   task.Config
	Switches []SwitchRecord
}

// switchHysteresis is how many consecutive epochs a new backend must win
// before a switch is committed (switches cost seconds; flapping would be
// worse than either static choice).
const switchHysteresis = 2

// switchGainThreshold is the minimum MEI advantage of the alternative over
// the current backend to justify paying the switch.
const switchGainThreshold = 1.3

// switchCooldownEpochs freezes further switching after a committed switch:
// the windows spanning the transition mix both phases' behaviour and both
// backends' pacing, and reacting to them would flap.
const switchCooldownEpochs = 12

// dynamicLocalRatio is the local-memory share of a dynamic run: half the
// footprint stays local while the backend behind the other half switches.
const dynamicLocalRatio = 0.5

// PrepareXDMDynamic wires a phased workload onto VM v with online
// MEI-driven backend switching, keeping dynamicLocalRatio of the footprint
// local. All phases must share footprint, anon fraction, thread count, and
// compute intensity (they are phases of one process). The VM must be booted
// with its warm backends ready.
func PrepareXDMDynamic(env Env, v *vm.VM, phases []workload.Spec, seed int64) *DynamicRun {
	if len(phases) == 0 {
		panic("baseline: dynamic run needs at least one phase")
	}
	base := phases[0]
	for i, p := range phases[1:] {
		if p.Threads != base.Threads || p.ComputePerAccess != base.ComputePerAccess {
			panic(fmt.Sprintf("baseline: phase %d differs in threads/compute from phase 0", i+1))
		}
	}
	eng := env.Machine.Eng

	// Initial decision from the first phase's offline profile.
	f := Profile(base, seed)
	opts := CatalogOptions(env)
	ranked := core.SelectBackend(nil, opts, f, base.ComputePerAccess)
	initial := v.ActiveBackend()
	if len(ranked) > 0 && v.HasWarmBackend(ranked[0].Name) {
		initial = ranked[0].Name
	}

	threads := base.Threads
	if threads < 1 {
		threads = 1
	}
	var sources []workload.AccessSource
	for ti := 0; ti < threads; ti++ {
		per := make([]workload.Spec, len(phases))
		for pi, p := range phases {
			p.MainAccesses /= threads
			if p.MainAccesses < 1 {
				p.MainAccesses = 1
			}
			per[pi] = p
		}
		ps := workload.NewPhasedStream(per, seed+int64(ti)*7919)
		if ti > 0 {
			ps.SkipInit()
		}
		sources = append(sources, ps)
	}

	run := &DynamicRun{}
	budget := int(dynamicLocalRatio * float64(base.FootprintPages))
	opt := optionByName(opts, initial)
	g, w := core.TuneTransferBudget(opt, f, budget)

	cfg := task.Config{
		Eng:               eng,
		Name:              "xdm-dynamic/" + base.Name,
		Spec:              base,
		Seed:              seed,
		Sources:           sources,
		LocalRatio:        dynamicLocalRatio,
		SwapPath:          v.PathFor(initial),
		FilePath:          env.filePath(),
		GranularityPages:  g,
		AdaptiveWindow:    true,
		RandomWindowPages: randomWindow(opt.Kind),
		Trace:             trace.NewTable(base.FootprintPages),
	}
	env.Machine.Backend(initial).SetWidth(widthForThreads(w, threads))

	// The dynamic loop: windowed feature fusion + MEI re-ranking + warm
	// switch with hysteresis.
	current := initial
	pendingTarget := ""
	pendingEpochs := 0
	switching := false
	cooldown := 0
	epoch := 0
	cfg.EpochAccesses = base.FootprintPages
	cfg.OnEpoch = func(t *task.Task) {
		epoch++
		defer cfg.Trace.Reset()
		if epoch == 1 { // allocation sweep: observe only
			return
		}
		live := cfg.Trace.Features(int(base.AnonFraction * float64(base.FootprintPages)))
		ranked = core.SelectBackend(ranked, availableOptions(env, opts), live, base.ComputePerAccess)
		if len(ranked) == 0 {
			return
		}
		// Retune the current path's parameters every epoch regardless.
		curOpt := optionByName(opts, current)
		ng, nw := core.TuneTransferBudget(curOpt, live, t.Cgroup().LimitPages)
		t.SetGranularity(ng)
		env.Machine.Backend(current).SetWidth(widthForThreads(nw, threads))

		if cooldown > 0 {
			cooldown--
			pendingTarget, pendingEpochs = "", 0
			return
		}
		want := ranked[0].Name
		curMEI := 0.0 // an unavailable current backend has no score
		for _, r := range ranked {
			if r.Name == current {
				curMEI = r.MEI
				break
			}
		}
		// A switch costs seconds: only commit when the alternative clearly
		// dominates the current backend's score.
		if want == current || switching || !v.HasWarmBackend(want) ||
			ranked[0].MEI < switchGainThreshold*curMEI {
			pendingTarget, pendingEpochs = "", 0
			return
		}
		if want != pendingTarget {
			pendingTarget, pendingEpochs = want, 1
			return
		}
		pendingEpochs++
		if pendingEpochs < switchHysteresis {
			return
		}
		// Commit the switch: the task keeps running on the old path until
		// the warm switch completes, then flips over.
		from := current
		switching = true
		pendingTarget, pendingEpochs = "", 0
		v.SwitchBackend(want, func() {
			current = want
			switching = false
			cooldown = switchCooldownEpochs
			t.SetSwapPath(v.PathFor(want))
			newOpt := optionByName(opts, want)
			ng, nw := core.TuneTransferBudget(newOpt, live, t.Cgroup().LimitPages)
			t.SetGranularity(ng)
			env.Machine.Backend(want).SetWidth(widthForThreads(nw, threads))
			run.Switches = append(run.Switches, SwitchRecord{At: eng.Now(), From: from, To: want})
		})
	}

	run.Config = cfg
	return run
}

// CatalogOptions builds console options for every backend on the machine,
// in BackendNames order.
func CatalogOptions(env Env) []core.BackendOption {
	var opts []core.BackendOption
	for _, name := range env.Machine.BackendNames() {
		opts = append(opts, OptionFor(env.Machine.Backend(name)))
	}
	return opts
}

// availableOptions marks saturated devices unavailable (system pressure).
func availableOptions(env Env, opts []core.BackendOption) []core.BackendOption {
	out := make([]core.BackendOption, len(opts))
	copy(out, opts)
	for i := range out {
		dev := env.Machine.Device(out[i].Name)
		if dev != nil && dev.Saturated() {
			out[i].Available = false
		}
	}
	return out
}

func optionByName(opts []core.BackendOption, name string) core.BackendOption {
	for _, o := range opts {
		if o.Name == name {
			return o
		}
	}
	return opts[0]
}
