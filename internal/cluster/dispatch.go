package cluster

import (
	"slices"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/place"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
)

// App is one application to place (Algorithm 1's input).
type App struct {
	Spec  workload.Spec
	SLO   float64
	Seed  int64
	Cores int
}

// Placement describes where an app landed: the VM, the backend the console
// chose and the local-memory share that keeps the app within its SLO.
type Placement struct {
	VM         *vm.VM
	Backend    string
	LocalRatio float64
	// How the VM was obtained, for overhead accounting.
	Via PlacementKind
}

// PlacementKind classifies Algorithm 1's outcome branches.
type PlacementKind int

// Placement branches, in Algorithm 1's preference order.
const (
	ViaOnlineVM PlacementKind = iota // online VM already on the right backend
	ViaFreeVM                        // idle VM already on the right backend (warm start)
	ViaSwitch                        // idle VM switched to the right backend
	ViaCreate                        // newly created VM
	ViaNone                          // no capacity
)

func (k PlacementKind) String() string {
	switch k {
	case ViaOnlineVM:
		return "online-vm"
	case ViaFreeVM:
		return "free-vm"
	case ViaSwitch:
		return "switched-vm"
	case ViaCreate:
		return "created-vm"
	default:
		return "unplaced"
	}
}

// Dispatcher implements Algorithm 1: backend selection and local-memory
// sizing from the request's page features, then VM placement through a
// pluggable placement policy (internal/place). Feature extraction runs in
// the request's owner, once per request (baseline.Profile), and parameter
// optimization where the task is built (baseline.PrepareXDM); both read the
// same features. The default policy, alg1, reconstructs
// Algorithm 1's original placement loops exactly: online VM on the chosen
// backend, then a free VM on it, then a switchable free VM — first match in
// VM order within each preference tier.
type Dispatcher struct {
	Env  baseline.Env
	opts []core.BackendOption

	// Policy selects the placement policy; nil means the built-in alg1
	// policy (the paper's Algorithm 1).
	Policy *place.Policy

	// MaxTasksPerVM, when positive, bounds how many tasks may run
	// concurrently on one VM. Algorithm 1's closed-loop grids leave it
	// zero (unbounded, the paper's setting); an open-loop server sets it
	// so that offered load beyond fleet capacity queues at the front door
	// instead of piling onto the fleet and stretching every task.
	MaxTasksPerVM int

	// Stats per branch.
	Placed   map[PlacementKind]int
	Rejected int

	// pressured, ranked and cands are Dispatch's scratch, reused across
	// calls: the pressure-adjusted options, their MEI ranking and the VM
	// candidates. None outlives a call (SelectBackend and Policy.Place keep
	// no slice).
	pressured []core.BackendOption
	ranked    []core.RankedBackend
	cands     []place.Candidate
}

// defaultPolicy is Algorithm 1's placement, shared by every dispatcher that
// does not override Policy. Policies are immutable after construction, so
// sharing one instance across concurrent grid cells is safe.
var defaultPolicy = place.Builtin("alg1")

// NewDispatcher builds a dispatcher over the machine's registered backends.
func NewDispatcher(env baseline.Env) *Dispatcher {
	return &Dispatcher{Env: env, opts: baseline.CatalogOptions(env), Placed: make(map[PlacementKind]int)}
}

// systemPressure marks options unavailable when their device is saturated
// (queue deeper than 4x its width), Algorithm 1's system_pressure input —
// extended with health: a dead or stalled device is never a placement
// target, so unhealthy donors drop out of selection automatically.
func (d *Dispatcher) systemPressure() []core.BackendOption {
	d.pressured = append(d.pressured[:0], d.opts...)
	opts := d.pressured
	for i := range opts {
		dev := d.Env.Machine.Device(opts[i].Name)
		if dev == nil {
			continue
		}
		if dev.Down() || dev.Stalled() || dev.Saturated() {
			opts[i].Available = false
		}
	}
	return opts
}

// accepts reports whether v can host app under the dispatcher's
// concurrency bound.
func (d *Dispatcher) accepts(v *vm.VM, app App) bool {
	if d.MaxTasksPerVM > 0 && v.ActiveTasks >= d.MaxTasksPerVM {
		return false
	}
	return v.Accept(app.Cores, app.Spec.FootprintPages)
}

// vmPages is the default VM memory size in pages (footprint-scaled).
const vmPages = 8 * workload.PagesPerGiB

// vmCores is the default VM vCPU count.
const vmCores = 2

// Dispatch places app per Algorithm 1 and calls ready once the hosting VM
// is available (immediately for warm placements; after the switch or boot
// otherwise). It returns the placement synchronously. f is app's page
// features: Algorithm 1's line 2 (feature extraction) runs in the caller,
// which profiles each request once (baseline.Profile) and passes the same
// features to every dispatch attempt and to baseline.PrepareXDM.
func (d *Dispatcher) Dispatch(app App, f trace.Features, ready func(Placement)) Placement {
	// Lines 3-4: backend selection and local-memory sizing. The transfer
	// parameters are tuned where the task is built (baseline.PrepareXDM),
	// for the local ratio the caller settles on.
	d.ranked = core.SelectBackend(d.ranked, d.systemPressure(), f, app.Spec.ComputePerAccess)
	if len(d.ranked) == 0 {
		d.Rejected++
		return Placement{Via: ViaNone}
	}
	backend := d.ranked[0].Name
	var opt core.BackendOption
	for _, o := range d.opts {
		if o.Name == backend {
			opt = o
			break
		}
	}
	localRatio := core.MinLocalRatio(opt, f, app.Spec.ComputePerAccess, app.SLO)

	finish := func(v *vm.VM, via PlacementKind) Placement {
		v.BeginTask()
		d.Placed[via]++
		return Placement{VM: v, Backend: backend, LocalRatio: localRatio, Via: via}
	}

	// Lines 5-20: VM placement, run through the placement policy. The
	// dispatcher projects every VM into a policy candidate; Tier encodes
	// Algorithm 1's preference classes (3 = online on the chosen backend,
	// 2 = free on it, 1 = free and switchable, 0 = incompatible — online on
	// another backend, or booting), so the default alg1 policy (score =
	// tier, ties to the lowest VM index) reproduces the original
	// first-match loops exactly. Other policies reorder preference but
	// never widen feasibility: the predicate chain keeps every candidate
	// inside the same accepts/compatibility envelope the loops enforced.
	vms := d.Env.Machine.VMs()
	d.cands = slices.Grow(d.cands[:0], len(vms))[:len(vms)]
	cands := d.cands
	for i, v := range vms {
		tier := 0
		switch {
		case v.State() == vm.Online && v.ActiveBackend() == backend:
			tier = 3
		case v.State() == vm.Free && v.ActiveBackend() == backend:
			tier = 2
		case v.State() == vm.Free:
			tier = 1
		}
		cands[i] = place.Candidate{
			ID:         i,
			FreeCores:  v.Cores,
			FreePages:  v.Pages,
			TotalCores: v.Cores,
			TotalPages: v.Pages,
			Load:       v.ActiveTasks,
			Tier:       tier,
			Healthy:    true,
			Accepts:    d.accepts(v, app),
		}
	}
	pol := d.Policy
	if pol == nil {
		pol = defaultPolicy
	}
	req := place.Request{Cores: app.Cores, Pages: app.Spec.FootprintPages}
	for {
		i := pol.Place(req, cands)
		if i < 0 {
			break
		}
		v := vms[i]
		if v.ActiveBackend() == backend {
			via := ViaFreeVM
			if v.State() == vm.Online {
				via = ViaOnlineVM
			}
			p := finish(v, via)
			if ready != nil {
				d.Env.Machine.Eng.Immediately(func() { ready(p) })
			}
			return p
		}
		var p Placement
		err := v.SwitchBackend(backend, func() {
			if ready != nil {
				ready(p)
			}
		})
		if err != nil {
			// Backend vanished between selection and switch: drop the VM
			// from this placement and re-run the policy, which continues
			// with the next-best candidate — the loop-based dispatcher's
			// `continue` behavior.
			cands[i].Accepts = false
			continue
		}
		p = finish(v, ViaSwitch)
		return p
	}
	// Lines 21-25: create a VM if the host has resources.
	cores, pages := vmCores, vmPages
	if cores < app.Cores {
		cores = app.Cores
	}
	if pages < app.Spec.FootprintPages {
		pages = app.Spec.FootprintPages
	}
	if v := d.Env.Machine.CreateVM("vm-auto", cores, pages, []string{backend}); v != nil {
		p := finish(v, ViaCreate)
		// Boot completion flips the VM to Free; ready fires then.
		d.Env.Machine.Eng.After(vm.VMBootCost+sim.Second, func() {
			if ready != nil {
				ready(p)
			}
		})
		return p
	}
	d.Rejected++
	return Placement{Via: ViaNone}
}

// Release marks a task completed on its VM.
func (d *Dispatcher) Release(p Placement) {
	if p.VM != nil {
		p.VM.EndTask()
	}
}
