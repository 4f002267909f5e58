package baseline

import (
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/swap"
	"repro/internal/task"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
)

// DefaultRefetchPenalty is the per-page cost of re-materializing a page
// whose far copy died with its backend: a read from the replicated object
// store / checkpoint the production deployment keeps behind far memory.
// 150 µs sits between an SSD read (~75 µs) and a cross-rack fetch — far
// memory is a cache tier, losing it costs a backing-store round trip,
// not the data.
const DefaultRefetchPenalty = 150 * sim.Microsecond

// FailoverRun extends MEI-based selection into failure-aware switching
// (the recovery half of the paper's <5 s warm-switch capability): every
// swap op runs under a per-kind timeout/retry policy feeding a
// faults.Monitor; when the active backend's error rate trips the monitor,
// the backend is demoted, the VM live-switches to the next-best healthy
// warm backend, far copies on the lost backend are dropped (re-faulted at
// Config.RefetchPenalty each), and the transfer parameters are retuned for
// the new medium.
type FailoverRun struct {
	Config  task.Config
	VM      *vm.VM
	Initial string // backend chosen at prep time

	Switches []SwitchRecord

	env Env
	// f is the offline profile the initial decision used; a failover
	// retunes from it.
	f         trace.Features
	ranked    []core.RankedBackend
	unhealthy map[string]bool
	switching bool
	threads   int
	task      *task.Task
}

// PrepareXDMFailover builds a failure-aware xDM run for spec on VM v. The
// VM must be booted with its warm backends ready; the initial backend is
// the MEI winner among them. Bind must be called with the constructed task
// before the engine runs, so the controller can retarget it on failover.
func PrepareXDMFailover(env Env, v *vm.VM, spec workload.Spec, localRatio float64, seed int64) *FailoverRun {
	f := Profile(spec, seed)
	opts := CatalogOptions(env)
	ranked := core.SelectBackend(nil, opts, f, spec.ComputePerAccess)

	initial := v.ActiveBackend()
	for _, r := range ranked {
		if v.HasWarmBackend(r.Name) {
			initial = r.Name
			break
		}
	}

	// Make the chosen backend the VM's active one now, while the guest is
	// still being provisioned — free, unlike a runtime SwitchBackend. A
	// later failover away from it then pays the real warm-switch cost.
	if err := v.Activate(initial); err != nil {
		initial = v.ActiveBackend()
	}

	threads := spec.Threads
	if threads < 1 {
		threads = 1
	}
	run := &FailoverRun{
		VM:        v,
		Initial:   initial,
		env:       env,
		f:         f,
		ranked:    ranked,
		unhealthy: make(map[string]bool),
		threads:   threads,
	}

	opt := optionByName(opts, initial)
	budget := int(localRatio * float64(spec.FootprintPages))
	g, w := core.TuneTransferBudget(opt, f, budget)

	filePath := env.filePath()
	// File refaults must not hang either if node storage fails; no monitor —
	// file storage is not a switchable far-memory backend.
	filePath.Retry = true

	run.Config = task.Config{
		Eng:               env.Machine.Eng,
		Name:              "xdm-failover/" + spec.Name,
		Spec:              spec,
		Seed:              seed,
		LocalRatio:        localRatio,
		SwapPath:          v.PathFor(initial),
		FilePath:          filePath,
		GranularityPages:  g,
		AdaptiveWindow:    true,
		RandomWindowPages: randomWindow(opt.Kind),
		RefetchPenalty:    DefaultRefetchPenalty,
	}
	env.Machine.Backend(initial).SetWidth(widthForThreads(w, threads))
	run.arm(v.PathFor(initial), initial)
	return run
}

// Bind attaches the running task so failover can retarget it. Call it
// right after task.New(run.Config).
func (r *FailoverRun) Bind(t *task.Task) { r.task = t }

// arm puts path under the timeout/retry policy for its medium and wires a
// fresh health monitor that demotes the backend when tripped.
func (r *FailoverRun) arm(path *swap.Path, backend string) {
	path.Retry = true
	m := faults.NewMonitor()
	m.OnUnhealthy = func() { r.demote(backend) }
	path.Health = m
}

// demote marks the backend unhealthy and live-switches the VM to the
// next-best healthy warm backend. If none exists, the run keeps limping on
// the demoted backend — every op failing through at the retry bound —
// which is still forward progress.
func (r *FailoverRun) demote(backend string) {
	if r.unhealthy[backend] || r.switching {
		return
	}
	eng := r.env.Machine.Eng
	r.unhealthy[backend] = true

	target, ok := core.FailoverTarget(r.ranked, backend, func(name string) bool {
		return !r.unhealthy[name] && r.VM.HasWarmBackend(name)
	})
	if !ok {
		return
	}
	r.switching = true
	err := r.VM.SwitchBackend(target, func() {
		r.switching = false
		r.Switches = append(r.Switches, SwitchRecord{At: eng.Now(), From: backend, To: target})
		if r.task == nil {
			return
		}
		// Far copies lived on the demoted backend; a transient outage
		// cannot be distinguished from death at switch time, so the
		// controller conservatively drops them and repays via the
		// re-fetch penalty.
		r.task.DropFarCopies()
		newPath := r.VM.PathFor(target)
		r.arm(newPath, target)
		r.task.SetSwapPath(newPath)
		// Retune transfer parameters for the new medium using the same
		// offline features the initial decision used.
		opt := optionByName(CatalogOptions(r.env), target)
		g, w := core.TuneTransferBudget(opt, r.f, r.task.Cgroup().LimitPages)
		r.task.SetGranularity(g)
		r.env.Machine.Backend(target).SetWidth(widthForThreads(w, r.threads))
	})
	if err != nil {
		r.switching = false
	}
}
