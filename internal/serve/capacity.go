package serve

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/sim"
	"repro/internal/workload"
)

// CapacityConfig ramps offered load stepwise until the overload signal
// trips, discovering a configuration's maximum sustainable request rate
// automatically instead of by operator bisection.
type CapacityConfig struct {
	// StartRPS, StepRPS, MaxRPS define the ramp: offered Poisson rates
	// Start, Start+Step, ... up to Max (inclusive).
	StartRPS float64
	StepRPS  float64
	MaxRPS   float64
	// Window is the arrival window simulated at each step (plus a drain of
	// one window quarter).
	Window sim.Duration
}

// The overload signal: a step is sustainable while the SLO-violation
// fraction and the shed rate both stay at or under these bounds.
const (
	maxViolationFrac = 0.05
	maxShedRate      = 0.01
)

// CapacityPoint is one rung of the ramp.
type CapacityPoint struct {
	OfferedRPS  float64
	Sustainable bool
	Result      Result
}

// CapacityResult is the outcome of one configuration's sweep.
type CapacityResult struct {
	Name string
	// MaxSustainableRPS is the highest offered rate that stayed under the
	// overload signal (0 if even the first rung tripped it).
	MaxSustainableRPS float64
	// Tripped reports whether the ramp found the knee (false means the
	// sweep exhausted MaxRPS while still sustainable — raise MaxRPS).
	Tripped bool
	Points  []CapacityPoint
}

// RungRunner runs one rung of a capacity ramp — a fresh, independent
// simulation at the given offered rate over the given arrival window — and
// reports the serving outcome. It abstracts the system under test away from
// the ramp logic, so capacity discovery applies equally to a baseline.Env
// fleet (see Fleet) and to a sharded datacenter arena.
type RungRunner func(rps float64, window, drain sim.Duration) Result

// NamedSweep is one configuration's capacity discovery: a rung runner for
// the system under test and the ramp to drive it with.
type NamedSweep struct {
	Name string
	Run  RungRunner
	Cap  CapacityConfig
}

// Sweep ramps a configuration's offered load: serve a Poisson window at each
// ramp rate and stop at the first rung that trips the overload signal. Rungs
// are inherently sequential (each rung decides whether the next runs);
// parallelism lives across configurations.
func Sweep(s NamedSweep) CapacityResult {
	cc := s.Cap
	out := CapacityResult{Name: s.Name}
	for rps := cc.StartRPS; rps <= cc.MaxRPS+1e-9; rps += cc.StepRPS {
		res := s.Run(rps, cc.Window, cc.Window/4)
		ok := res.SLOViolationFrac <= maxViolationFrac && res.ShedRate <= maxShedRate
		out.Points = append(out.Points, CapacityPoint{OfferedRPS: rps, Sustainable: ok, Result: res})
		if !ok {
			out.Tripped = true
			break
		}
		out.MaxSustainableRPS = rps
		if cc.StepRPS <= 0 {
			break
		}
	}
	return out
}

// Fleet is the rung runner for a serving fleet: build a fresh environment
// per rung (each rung is an independent simulation — no state bleeds
// between load levels) and serve Poisson arrivals at the rung's rate
// through Run.
func Fleet(build func() baseline.Env, base Config) RungRunner {
	return func(rps float64, window, drain sim.Duration) Result {
		cfg := base
		cfg.Arrivals = workload.Poisson{RPS: rps}
		cfg.Duration = window
		if cfg.Drain <= 0 {
			cfg.Drain = drain
		}
		return Run(build(), cfg)
	}
}

// RenderCapacity formats sweep results as an aligned text report, one
// configuration section per sweep, ending with the discovered capacity.
func RenderCapacity(results []CapacityResult) string {
	out := ""
	for _, r := range results {
		out += fmt.Sprintf("## capacity: %s\n", r.Name)
		out += fmt.Sprintf("%10s %12s %10s %10s %10s %10s  %s\n",
			"offered", "admitted", "goodput", "shed%", "viol%", "p99", "verdict")
		for _, p := range r.Points {
			verdict := "ok"
			if !p.Sustainable {
				verdict = "OVERLOAD"
			}
			out += fmt.Sprintf("%10.1f %12d %10.1f %9.2f%% %9.2f%% %10s  %s\n",
				p.OfferedRPS, p.Result.Admitted, p.Result.GoodputRPS,
				100*p.Result.ShedRate, 100*p.Result.SLOViolationFrac,
				p.Result.DelayP99, verdict)
		}
		if r.Tripped {
			out += fmt.Sprintf("max sustainable: %.1f req/s\n\n", r.MaxSustainableRPS)
		} else {
			out += fmt.Sprintf("max sustainable: >= %.1f req/s (ramp exhausted before overload)\n\n", r.MaxSustainableRPS)
		}
	}
	return out
}
