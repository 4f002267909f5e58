package experiments

import (
	"fmt"
	"strings"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/device"
	"repro/internal/pcie"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/vm"
	"repro/internal/workload"
)

func init() { register("serving", Serving) }

// Open-loop serving experiment: automated capacity discovery (static
// single-backend vs xdm multi-backend) plus the flash-crowd shedding
// comparison. The serving fleet is deliberately memory-overcommitted — each
// VM holds one request footprint of DRAM but admits two concurrent requests
// — so the swap backend's speed, not CPU, sets the sustainable request
// rate. That is the serving-mode restatement of the paper's thesis: a
// multi-backend fleet sustains strictly more load than any static
// single-backend one.
const (
	servingSLO        = 100 * sim.Millisecond
	servingFleetVMs   = 4
	servingFleetCores = 2
)

// servingRamp scales a full-fidelity offered-rate ramp down to the option's
// scale: requests shrink by o.Scale, so sustainable rates grow by roughly
// the same factor.
func servingRamp(o Options, start, step, max float64) serve.CapacityConfig {
	s := float64(o.Scale)
	return serve.CapacityConfig{
		StartRPS: start * s,
		StepRPS:  step * s,
		MaxRPS:   max * s,
		Window:   sim.Second,
	}
}

// servingTemplates scales the standard request pool and reports the largest
// scaled footprint, which sizes the fleet's per-VM memory (2:1 overcommit
// at the default two tasks per VM).
func servingTemplates(o Options) (apps []cluster.App, maxFoot int) {
	apps = serve.RequestTemplates()
	for i := range apps {
		apps[i].Spec = o.scaled(apps[i].Spec)
		if apps[i].Spec.FootprintPages > maxFoot {
			maxFoot = apps[i].Spec.FootprintPages
		}
	}
	return apps, maxFoot
}

// servingFleet builds a fresh prewarmed serving machine whose backends are
// chosen by name prefix (ssd/rdma/dram).
func servingFleet(backends []string, pages int) baseline.Env {
	eng := sim.NewEngine()
	m := vm.NewMachine(eng, pcie.Gen4, 40, 16, 1<<20)
	for _, name := range backends {
		switch {
		case strings.HasPrefix(name, "rdma"):
			m.AttachDevice(device.SpecConnectX5(name))
		case strings.HasPrefix(name, "dram"):
			m.AttachDevice(device.SpecRemoteDRAM(name))
		default:
			m.AttachDevice(device.SpecTestbedSSD(name))
		}
	}
	env := baseline.Env{Machine: m, FileBackend: backends[0]}
	serve.PrewarmFleet(env, servingFleetVMs, servingFleetCores, pages)
	return env
}

// servingConfig is one capacity-sweep configuration.
type servingConfig struct {
	name     string
	backends []string
	ramp     serve.CapacityConfig
}

func servingConfigs(o Options) []servingConfig {
	return []servingConfig{
		// Full-fidelity knees: static-ssd ~12 req/s, xdm ~725 req/s.
		{"static-ssd", []string{"ssd0"}, servingRamp(o, 4, 4, 48)},
		{"xdm", []string{"ssd0", "rdma0", "dram0"}, servingRamp(o, 100, 100, 1200)},
	}
}

// ServingSweeps is the standard capacity-sweep grid, exposed so the
// xdmsim -capacity harness and the serving experiment discover capacity
// on the exact same configurations.
func ServingSweeps(o Options) []serve.NamedSweep {
	o = o.normalize()
	cfgs := servingConfigs(o)
	out := make([]serve.NamedSweep, len(cfgs))
	for i, c := range cfgs {
		c := c
		apps, foot := servingTemplates(o)
		base := serve.Config{
			Templates: apps,
			SLO:       servingSLO,
			Shedding:  true,
			Seed:      o.Seed,
			Policy:    o.placementPolicy(),
		}
		out[i] = serve.NamedSweep{
			Name: c.name,
			Run:  serve.Fleet(func() baseline.Env { return servingFleet(c.backends, foot) }, base),
			Cap:  c.ramp,
		}
	}
	return out
}

// Capacity discovers each sweep's capacity. Sweeps fan out across grid
// workers; the ramp inside one sweep is inherently sequential (each rung
// decides whether the next runs). Results come back in input order, so the
// output is byte-identical for any worker count.
func Capacity(o Options, sweeps []serve.NamedSweep) []serve.CapacityResult {
	return runGrid(o.normalize(), len(sweeps), func(i int) serve.CapacityResult {
		return serve.Sweep(sweeps[i])
	})
}

// ServingOnce runs one open-loop serving simulation with the given arrival
// process against the standard overcommitted xdm fleet (deadline admission
// and the shedder on) and renders the result — the engine behind `xdmsim
// -serve`.
func ServingOnce(o Options, arr workload.ArrivalProcess, slo, duration sim.Duration) []Table {
	o = o.normalize()
	apps, foot := servingTemplates(o)
	env := servingFleet([]string{"ssd0", "rdma0", "dram0"}, foot)
	res := serve.Run(env, serve.Config{
		Templates: apps,
		Arrivals:  arr,
		Duration:  duration,
		Drain:     duration / 4,
		SLO:       slo,
		Shedding:  true,
		Seed:      o.Seed,
		Policy:    o.placementPolicy(),
	})
	t := Table{
		ID:      "serve",
		Title:   fmt.Sprintf("open-loop serving: %s over %v, SLO %v", arr.Name(), duration, slo),
		Columns: []string{"metric", "value"},
	}
	refused := res.RefusedQueueFull + res.RefusedDeadline + res.RefusedThrottle
	add := func(name, val string) { t.AddRow(name, val) }
	add("offered", fmt.Sprintf("%d", res.Offered))
	add("admitted", fmt.Sprintf("%d", res.Admitted))
	add("refused (queue/deadline/throttle)", fmt.Sprintf("%d (%d/%d/%d)",
		refused, res.RefusedQueueFull, res.RefusedDeadline, res.RefusedThrottle))
	add("degraded", fmt.Sprintf("%d", res.Degraded))
	add("shed after admit", fmt.Sprintf("%d", res.Shed))
	add("completed", fmt.Sprintf("%d", res.Completed))
	add("completed in SLO", fmt.Sprintf("%d", res.CompletedInSLO))
	add("in flight at end", fmt.Sprintf("%d", res.InFlight))
	add("placement delay p50/p95/p99", fmt.Sprintf("%s / %s / %s",
		ms(res.DelayP50), ms(res.DelayP95), ms(res.DelayP99)))
	add("SLO violation fraction", pct(res.SLOViolationFrac))
	add("goodput", fmt.Sprintf("%.1f req/s", res.GoodputRPS))
	add("shed rate", pct(res.ShedRate))
	add("max queue depth", fmt.Sprintf("%d", res.MaxQueue))
	return []Table{t}
}

// ServingFlashRow is one flash-crowd cell: the same overload served with
// and without the shedder.
type ServingFlashRow struct {
	System string // "shed" | "no-shed"
	Result serve.Result
}

// ServingFlashData serves an 8x flash crowd on the overcommitted static-ssd
// fleet twice: with deadline admission and the adaptive shedder, and with
// both disabled (every request that fits the queue waits until placed).
func ServingFlashData(o Options) []ServingFlashRow {
	o = o.normalize()
	systems := []string{"no-shed", "shed"}
	return runGrid(o, len(systems), func(i int) ServingFlashRow {
		apps, foot := servingTemplates(o)
		cfg := serve.Config{
			Templates: apps,
			Arrivals: workload.FlashCrowd{
				BaseRPS: 25 * float64(o.Scale), Mult: 8,
				At: sim.Second, For: 2 * sim.Second,
			},
			Duration: 4 * sim.Second,
			Drain:    sim.Second,
			SLO:      servingSLO,
			Shedding: systems[i] == "shed",
			Seed:     o.Seed,
			Policy:   o.placementPolicy(),
		}
		env := servingFleet([]string{"ssd0"}, foot)
		return ServingFlashRow{System: systems[i], Result: serve.Run(env, cfg)}
	})
}

// Serving renders the open-loop serving experiment: the capacity table and
// the flash-crowd shedding comparison.
func Serving(o Options) []Table {
	sweeps := Capacity(o, ServingSweeps(o))

	cap := Table{
		ID:    "serving",
		Title: "open-loop capacity discovery: max sustainable req/s per configuration",
		Columns: []string{"config", "offered", "admitted", "goodput",
			"shed", "viol", "p99", "verdict"},
	}
	knees := map[string]float64{}
	for _, r := range sweeps {
		knees[r.Name] = r.MaxSustainableRPS
		for _, p := range r.Points {
			verdict := "ok"
			if !p.Sustainable {
				verdict = "OVERLOAD"
			}
			cap.AddRow(r.Name, fmt.Sprintf("%.0f", p.OfferedRPS),
				fmt.Sprintf("%d", p.Result.Admitted), f2(p.Result.GoodputRPS),
				pct(p.Result.ShedRate), pct(p.Result.SLOViolationFrac),
				ms(p.Result.DelayP99), verdict)
		}
		if r.Tripped {
			cap.Notes = append(cap.Notes,
				fmt.Sprintf("%s max sustainable: %.0f req/s", r.Name, r.MaxSustainableRPS))
		} else {
			cap.Notes = append(cap.Notes,
				fmt.Sprintf("%s max sustainable: >= %.0f req/s (ramp exhausted)", r.Name, r.MaxSustainableRPS))
		}
	}
	if s, x := knees["static-ssd"], knees["xdm"]; s > 0 && x > 0 {
		cap.Notes = append(cap.Notes,
			fmt.Sprintf("xdm sustains %s the static single-backend rate", ratio(x/s)))
	}

	flash := Table{
		ID:    "serving-flash",
		Title: "8x flash crowd on the overcommitted ssd fleet: shedding vs none",
		Columns: []string{"system", "offered", "admitted", "completed",
			"shed", "goodput", "p99 delay", "viol"},
	}
	for _, row := range ServingFlashData(o) {
		r := row.Result
		flash.AddRow(row.System, fmt.Sprintf("%d", r.Offered),
			fmt.Sprintf("%d", r.Admitted), fmt.Sprintf("%d", r.Completed),
			fmt.Sprintf("%d", r.Shed), f2(r.GoodputRPS),
			ms(r.DelayP99), pct(r.SLOViolationFrac))
	}
	flash.Notes = append(flash.Notes, fmt.Sprintf(
		"SLO: admitted-work placement delay p99 <= %s; the shedder defends it, the unshedded queue does not",
		ms(servingSLO)))

	return []Table{cap, flash}
}
