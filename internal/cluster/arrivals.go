package cluster

import (
	"math/rand"

	"repro/internal/baseline"
	"repro/internal/place"
	"repro/internal/sim"
	"repro/internal/task"
)

// ArrivalSimConfig drives Algorithm 1 with a stream of application
// arrivals, the way a production front-end would: apps arrive with
// exponential interarrival times, are dispatched onto the VM fleet (warm
// start, backend switch, or VM create), run to completion, and release
// their VM.
type ArrivalSimConfig struct {
	// Templates is the pool of application shapes; arrivals cycle through
	// it pseudo-randomly.
	Templates []App
	// Arrivals is the number of applications submitted.
	Arrivals int
	// MeanInterarrival is the exponential arrival spacing.
	MeanInterarrival sim.Duration
	Seed             int64
	// Policy overrides the dispatcher's placement policy (nil = alg1).
	Policy *place.Policy
}

// ArrivalSimResult summarizes the run.
type ArrivalSimResult struct {
	Placed    map[PlacementKind]int
	Rejected  int
	Completed int
	// Switches counts backend switches performed across the fleet.
	Switches uint64
	// MeanPlacementDelay is the mean placement delay over DelaySamples.
	//
	// Placement delay is defined as submission → VM-ready: the span from
	// the instant an app arrives to the instant its hosting VM is ready to
	// run it (immediately for warm placements, after the switch or boot
	// otherwise). Each app contributes exactly one sample, on the first
	// placement that reaches VM-ready — a redispatch after a failure does
	// not restart or re-count the measurement. Rejected apps never reach
	// VM-ready and contribute no sample (they are visible in Rejected, not
	// silently folded into the mean).
	MeanPlacementDelay sim.Duration
	// DelaySamples is the number of apps measured into MeanPlacementDelay.
	DelaySamples int
}

// RunArrivalSim executes the arrival stream against env's machine. The
// machine should have its backends attached; pre-booting warm VMs is the
// caller's choice (see AblationWarmStart for the effect).
func RunArrivalSim(env baseline.Env, cfg ArrivalSimConfig) ArrivalSimResult {
	eng := env.Machine.Eng
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := NewDispatcher(env)
	d.Policy = cfg.Policy

	res := ArrivalSimResult{}
	var delaySum sim.Duration
	var delayed int

	var submit func(i int)
	submit = func(i int) {
		if i >= cfg.Arrivals {
			return
		}
		app := cfg.Templates[rng.Intn(len(cfg.Templates))]
		app.Seed = cfg.Seed + int64(i)
		submitted := eng.Now()

		f := baseline.Profile(app.Spec, app.Seed)
		d.Dispatch(app, f, func(pl Placement) {
			delaySum += eng.Now().Sub(submitted)
			delayed++
			// Run the app through its VM's path to the active backend,
			// with the console's decided parameters.
			setup := baseline.PrepareXDMOn(env, pl.VM.Path(), app.Spec, f, pl.LocalRatio, app.SLO, app.Seed)
			task.New(setup.Config).Start(func(task.Stats) {
				res.Completed++
				d.Release(pl)
			})
		})
		// Schedule the next arrival.
		gap := sim.Duration(rng.ExpFloat64() * float64(cfg.MeanInterarrival))
		if gap < 1 {
			gap = 1
		}
		eng.After(gap, func() { submit(i + 1) })
	}
	eng.Immediately(func() { submit(0) })
	eng.Run()

	res.Placed = d.Placed
	res.Rejected = d.Rejected
	res.DelaySamples = delayed
	if delayed > 0 {
		res.MeanPlacementDelay = delaySum / sim.Duration(delayed)
	}
	for _, v := range env.Machine.VMs() {
		res.Switches += v.Switches
	}
	return res
}

// WarmFleet pre-boots one VM per registered backend with the given
// resources, returning once they are all Free.
func WarmFleet(env baseline.Env, cores, pages int) {
	for _, name := range env.Machine.BackendNames() {
		env.Machine.CreateVM("warm-"+name, cores, pages, []string{name})
	}
	env.Machine.Eng.Run()
}
