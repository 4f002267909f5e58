package experiments

import (
	"fmt"

	"repro/internal/datacenter"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workload"
)

func init() { register("arena", Arena) }

// Datacenter-arena experiment: the paper's fleet-level claim replayed at
// fleet scale inside one simulation. Thousands of nodes are partitioned
// across the parallel-in-time kernel's shards (sim.Shards); the dispatcher
// places the same closed-loop task set onto a static single-backend fleet
// and an xdm multi-backend fleet, and the xdm fleet finishes first. Every
// number in the table is byte-identical for any Options.ShardWorkers value
// — sharding changes wall-clock, never results.
const (
	arenaSLO          = 50 * sim.Millisecond
	arenaCoresPerNode = 4
)

// arenaFleetSize scales the closed-loop fleet: 5000 nodes at full fidelity,
// shrinking quadratically with scale (the per-task work already shrinks
// linearly via scaled specs) down to a floor that still exercises multi-node
// placement on every shard count the tests use.
func arenaFleetSize(o Options) int {
	n := 5000 / (o.Scale * o.Scale)
	if n < 80 {
		n = 80
	}
	return n
}

// arenaCapacityFleet is the smaller open-loop fleet for capacity ramps: a
// ramp runs many independent simulations (one per rung), so it gets a
// cube-scaled fleet to keep sweeps tractable.
func arenaCapacityFleet(o Options) int {
	n := 5000 / (o.Scale * o.Scale * o.Scale)
	if n < 10 {
		n = 10
	}
	return n
}

// arenaConfig assembles one arena run from the shared serving templates.
// Shards and ShardWorkers both follow Options.ShardWorkers: one knob
// selects the domain partitioning and the workers driving it.
func arenaConfig(o Options, nodes, tasks int, xdm bool) datacenter.ArenaConfig {
	apps, foot := servingTemplates(o)
	return datacenter.ArenaConfig{
		Nodes:        nodes,
		Shards:       o.ShardWorkers,
		ShardWorkers: o.ShardWorkers,
		CoresPerNode: arenaCoresPerNode,
		PagesPerNode: 4 * foot,
		XDM:          xdm,
		Templates:    apps,
		Tasks:        tasks,
		SLO:          arenaSLO,
		Seed:         o.Seed,
		Policy:       o.placementPolicy(),
	}
}

// ArenaRow is one closed-loop arena cell.
type ArenaRow struct {
	Config       string
	Nodes, Tasks int
	Result       datacenter.ArenaResult
}

// ArenaData runs the closed-loop static-vs-xdm comparison. The two fleets
// fan out across grid workers; each fleet additionally shards internally by
// Options.ShardWorkers.
func ArenaData(o Options) []ArenaRow {
	o = o.normalize()
	// Three waves of work per task slot (4 slots per node): the dispatcher
	// queue stays busy, so placement delay and memory balance reflect a
	// loaded fleet rather than an idle one.
	nodes := arenaFleetSize(o)
	tasks := 12 * nodes
	configs := []struct {
		name string
		xdm  bool
	}{
		{"static-ssd", false},
		{"xdm", true},
	}
	return runGrid(o, len(configs), func(i int) ArenaRow {
		cfg := arenaConfig(o, nodes, tasks, configs[i].xdm)
		return ArenaRow{
			Config: configs[i].name,
			Nodes:  nodes,
			Tasks:  tasks,
			Result: datacenter.NewArena(cfg).Run(),
		}
	})
}

// Arena renders the closed-loop fleet comparison. Wall-clock shard stats are
// deliberately absent: the table must be byte-identical across shard and
// worker counts, so it carries only simulation quantities (the deterministic
// event count stands in as the run's size).
func Arena(o Options) []Table {
	o = o.normalize()
	rows := ArenaData(o)
	t := Table{
		ID: "arena",
		Title: fmt.Sprintf("sharded datacenter arena: %d nodes, %d closed-loop tasks, static vs xdm",
			rows[0].Nodes, rows[0].Tasks),
		Columns: []string{"config", "completed", "makespan", "p50 delay", "p99 delay", "mbe", "events"},
	}
	makespans := map[string]sim.Duration{}
	for _, r := range rows {
		res := r.Result
		makespans[r.Config] = res.Makespan
		t.AddRow(r.Config, fmt.Sprintf("%d", res.Completed), ms(res.Makespan),
			ms(res.DelayP50), ms(res.DelayP99), f2(res.MBE), fmt.Sprintf("%d", res.Events))
	}
	if s, x := makespans["static-ssd"], makespans["xdm"]; s > 0 && x > 0 {
		t.Notes = append(t.Notes,
			fmt.Sprintf("xdm finishes the fleet's work %s faster than static single-backend", ratio(s.Seconds()/x.Seconds())))
	}
	t.Notes = append(t.Notes,
		"identical output for any -shards value: cross-shard events merge at deterministic lookahead barriers")
	return []Table{t}
}

// arenaServeResult maps an open-loop arena outcome onto the serving result
// shape the capacity ramp judges. The arena has one refusal reason (queue
// full) and no post-admission shedding, so the overload signal reduces to
// the SLO-violation fraction over completions plus the front-door shed rate.
func arenaServeResult(r datacenter.ArenaResult, window sim.Duration) serve.Result {
	out := serve.Result{
		Offered:          r.Offered,
		RefusedQueueFull: r.Refused,
		Admitted:         r.Offered - r.Refused,
		Completed:        r.Completed,
		CompletedInSLO:   r.InSLO,
		InFlight:         r.InFlight,
		DelayP50:         r.DelayP50,
		DelayP95:         r.DelayP95,
		DelayP99:         r.DelayP99,
		DelaySamples:     r.Completed,
		MaxQueue:         r.MaxQueue,
	}
	if r.Completed > 0 {
		out.SLOViolationFrac = float64(r.Completed-r.InSLO) / float64(r.Completed)
	}
	if r.Offered > 0 {
		out.ShedRate = float64(r.Refused) / float64(r.Offered)
	}
	if window > 0 {
		out.GoodputRPS = float64(r.InSLO) / window.Seconds()
	}
	return out
}

// ArenaSweeps is the arena capacity-sweep grid: open-loop Poisson arrivals
// against the sharded fleet, ramped through the same serve.Sweep the
// single-machine fleets use. Exposed so xdmsim -capacity discovers arena
// capacity alongside the serving fleets.
func ArenaSweeps(o Options) []serve.NamedSweep {
	o = o.normalize()
	nodes := arenaCapacityFleet(o)
	// Calibrated knees at the reference point (10 nodes, scale 8): static
	// saturates near 3.4k req/s, xdm near 26k req/s — the swap backend, not
	// CPU, is the binding resource, exactly as on the single-machine fleets.
	return []serve.NamedSweep{
		arenaSweep(o, "arena-static", nodes, false, arenaRamp(o, nodes, 1000, 1000, 6000)),
		arenaSweep(o, "arena-xdm", nodes, true, arenaRamp(o, nodes, 8000, 8000, 48000)),
	}
}

// arenaSweep is one open-loop capacity sweep on a fresh arena per rung:
// Poisson arrivals at the rung's rate against a fleet of the given size,
// placed by o's policy.
func arenaSweep(o Options, name string, nodes int, xdm bool, ramp serve.CapacityConfig) serve.NamedSweep {
	return serve.NamedSweep{
		Name: name,
		Run: func(rps float64, window, drain sim.Duration) serve.Result {
			cfg := arenaConfig(o, nodes, 0, xdm)
			cfg.Arrivals = workload.Poisson{RPS: rps}
			cfg.Duration = window
			cfg.Drain = drain
			return arenaServeResult(datacenter.NewArena(cfg).Run(), window)
		},
		Cap: ramp,
	}
}

// arenaRamp builds a capacity ramp whose rungs track both knobs that move
// the knee: fleet size (linearly — more nodes serve more) and scale
// (inversely — larger scale shrinks each request, so sustainable rates
// grow). Rates are quoted at the calibration point of 10 nodes, scale 8.
func arenaRamp(o Options, nodes int, start, step, max float64) serve.CapacityConfig {
	f := float64(nodes) / 10 * 8 / float64(o.Scale)
	return serve.CapacityConfig{
		StartRPS: start * f,
		StepRPS:  step * f,
		MaxRPS:   max * f,
		// Half the serving fleets' window: a rung offers thousands of
		// requests either way, and fleet-level queueing collapse shows up
		// well inside 500ms.
		Window: sim.Second / 2,
	}
}
