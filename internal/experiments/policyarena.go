package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/clustertrace"
	"repro/internal/datacenter"
	"repro/internal/place"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workload"
)

func init() { register("policyarena", PolicyArena) }

// Placement-policy arena experiment: the same day-long Alibaba-2017 diurnal
// arrival replay served by the sharded xdm arena under each built-in
// placement policy, head to head. The offered load peaks near the fleet's
// calibrated knee, so the policies separate on exactly the axes the
// paper's balance story cares about: memory-balance effectiveness (MBE over
// peak node utilizations), peak memory stranding (free pages marooned on
// core-exhausted nodes), tail placement delay, and the finish line. Every
// number is byte-identical for any -workers and -shards value: policies are
// pure functions of model identity, and rows fan out across grid workers
// exactly like any other experiment grid.

// PolicyArenaPolicies are the competing placement policies, in table order.
func PolicyArenaPolicies() []string {
	return []string{"alg1", "best-fit", "worst-fit", "oversub:1.25", "one-shot"}
}

// policyArenaTemplates extends the serving request pool with the shapes that
// make placement policy matter: a wide request (2 cores, light memory) that
// strands memory when cores run out, and a fat request (1 core, 3x footprint)
// that only fits on a node with real page headroom. The
// returned footprint is the base serving footprint; nodes get 6x of it so
// neither resource dominates by construction.
func policyArenaTemplates(o Options) (apps []cluster.App, foot int) {
	base, foot := servingTemplates(o)
	wide := base[len(base)-1]
	wide.Spec.Name = "req-wide"
	wide.Cores = 2
	fat := base[0]
	fat.Spec.Name = "req-fat"
	fat.Spec.FootprintPages = 3 * foot
	return append(base, wide, fat), foot
}

// policyArenaArrivals is the shared day-compressed diurnal replay: a 96-point
// Alibaba-2017 utilization series (15-minute buckets over 24h) squeezed into
// the simulated horizon, cresting near the xdm arena's calibrated knee so the
// fleet visits both slack and contention on every run.
func policyArenaArrivals(o Options, nodes int, horizon sim.Duration) workload.ArrivalProcess {
	f := float64(nodes) / 10 * 8 / float64(o.Scale)
	return workload.NewTraceReplay(clustertrace.Alibaba2017(), 96, horizon/96, 24000*f, o.Seed)
}

// policyArenaHorizon compresses the 24h replay into half a simulated second:
// long enough for the diurnal crest to visit the knee under every policy,
// short enough that the five-way race stays affordable in the golden corpus.
const policyArenaHorizon = sim.Second / 2

// PolicyArenaRow is one policy's outcome on the shared replay.
type PolicyArenaRow struct {
	Policy string
	Result datacenter.ArenaResult
}

// PolicyArenaData runs the replay under every policy; rows fan out across
// grid workers and each run additionally shards by Options.ShardWorkers.
func PolicyArenaData(o Options) []PolicyArenaRow {
	o = o.normalize()
	nodes := arenaCapacityFleet(o)
	specs := PolicyArenaPolicies()
	return runGrid(o, len(specs), func(i int) PolicyArenaRow {
		cfg := arenaConfig(o, nodes, 0, true)
		apps, foot := policyArenaTemplates(o)
		cfg.Templates = apps
		cfg.PagesPerNode = 6 * foot
		cfg.Policy = place.Builtin(specs[i])
		cfg.Arrivals = policyArenaArrivals(o, nodes, policyArenaHorizon)
		cfg.Duration = policyArenaHorizon
		cfg.Drain = policyArenaHorizon / 4
		return PolicyArenaRow{Policy: specs[i], Result: datacenter.NewArena(cfg).Run()}
	})
}

// PolicyArena renders the policy comparison. Only simulation quantities
// appear: the table must stay byte-identical across worker and shard counts.
func PolicyArena(o Options) []Table {
	o = o.normalize()
	rows := PolicyArenaData(o)
	nodes := arenaCapacityFleet(o)
	t := Table{
		ID: "policyarena",
		Title: fmt.Sprintf("placement policies on the xdm arena: %d nodes, day-compressed alibaba-2017 replay",
			nodes),
		Columns: []string{"policy", "offered", "refused", "completed", "mbe",
			"stranded", "p99 delay", "last done"},
	}
	for _, r := range rows {
		res := r.Result
		t.AddRow(r.Policy, fmt.Sprintf("%d", res.Offered), fmt.Sprintf("%d", res.Refused),
			fmt.Sprintf("%d", res.Completed), f2(res.MBE), pct(res.StrandedFrac),
			ms(res.DelayP99), ms(res.LastDone))
	}
	t.Notes = append(t.Notes,
		"stranded = peak fraction of fleet memory free on core-exhausted nodes at a placement failure",
		"identical output for any -workers/-shards value: policy choice is a pure function of model identity")
	return []Table{t}
}

// PolicyArenaSweeps exposes one capacity sweep per placement policy on the
// xdm arena, so xdmsim -capacity ranks policies by sustainable request
// rate next to the static-vs-xdm arena sweeps.
func PolicyArenaSweeps(o Options) []serve.NamedSweep {
	o = o.normalize()
	nodes := arenaCapacityFleet(o)
	specs := PolicyArenaPolicies()
	out := make([]serve.NamedSweep, len(specs))
	for i, spec := range specs {
		po := o
		po.Policy = spec
		out[i] = arenaSweep(po, "policy-"+spec, nodes, true, arenaRamp(o, nodes, 8000, 8000, 48000))
	}
	return out
}
