package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
)

// benchScale is the fidelity divisor every workload runs at. The golden
// corpus is pinned at scale 8, seed 1, so seed-1 runs are golden-checked.
const benchScale = 8

// workload is one fixed list of experiments run once per rep. Workers and
// ShardWorkers never exceed 2 so that the load fits a 2-CPU host.
type workload struct {
	name string
	exps []string
	// workers and shardWorkers are experiments.Options.Workers/ShardWorkers.
	workers, shardWorkers int
	// nominalRep is a fixed estimate of one warm rep's host time on a 2-core
	// Xeon. It only turns -seconds into a rep count, so both sides of a
	// comparison run the same reps; it is never measured at run time.
	nominalRep time.Duration
	model      modelMetric
}

// modelMetric is the workload's headline modelled-design number, read from
// the rendered tables. It is simulated, not host, time or rate: it repeats
// exactly at a given seed.
type modelMetric struct {
	name, unit string
	of         func([]experiments.Table) (float64, error)
}

var workloads = []workload{
	{
		// The paper's single-node claims: hundreds of small engines drive
		// the swap, device and pcie op path plus task and mem. No
		// dispatcher and no shard group.
		name:         "node-swap",
		exps:         []string{"tab6", "fig14", "fig16", "dynamic", "faults", "ablation"},
		workers:      2,
		shardWorkers: 1,
		nominalRep:   2500 * time.Millisecond,
		model:        modelMetric{"model.swap_speedup", "x", swapSpeedup},
	},
	{
		// The only real 2-worker sim.Shards group: lookahead windows,
		// barriers and cross-shard messages, with every task at t=0.
		name:         "arena-sharded",
		exps:         []string{"arena"},
		workers:      1,
		shardWorkers: 2,
		nominalRep:   1200 * time.Millisecond,
		model:        modelMetric{"model.fleet_speedup", "x", fleetSpeedup},
	},
	{
		// An open-loop Alibaba replay under five placement policies: the
		// largest single-engine event heap, and datacenter and place with
		// arrivals and refusals.
		name:         "policy-replay",
		exps:         []string{"policyarena"},
		workers:      2,
		shardWorkers: 1,
		nominalRep:   13 * time.Second,
		model:        modelMetric{"model.p99_delay_ms", "sim_ms", worstFitP99},
	},
	{
		// Capacity ramps plus a flash crowd: the only workload whose
		// per-request dispatcher control plane costs much.
		name:         "serving-ramp",
		exps:         []string{"serving"},
		workers:      1,
		shardWorkers: 1,
		nominalRep:   20 * time.Second,
		model:        modelMetric{"model.xdm_knee_rps", "sim_rps", xdmKnee},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) options(seed int64) experiments.Options {
	return experiments.Options{Scale: benchScale, Seed: seed, Workers: w.workers, ShardWorkers: w.shardWorkers}
}

// warmReps turns the requested measuring time into a fixed rep count.
func (w workload) warmReps(seconds int) int {
	n := int((time.Duration(seconds)*time.Second + w.nominalRep/2) / w.nominalRep)
	if n < 1 {
		n = 1
	}
	return n
}

// column finds the table with the given id and returns it with the cells
// of its column named col, one per row.
func column(tables []experiments.Table, id, col string) (experiments.Table, []string, error) {
	for _, t := range tables {
		if t.ID != id {
			continue
		}
		for i, c := range t.Columns {
			if c != col {
				continue
			}
			vals := make([]string, len(t.Rows))
			for r, row := range t.Rows {
				if i >= len(row) {
					return t, nil, fmt.Errorf("table %s: row %d has no %q cell", id, r, col)
				}
				vals[r] = row[i]
			}
			return t, vals, nil
		}
		return t, nil, fmt.Errorf("table %s has no column %q", id, col)
	}
	return experiments.Table{}, nil, fmt.Errorf("no table %s", id)
}

// cell reads column col of the row whose first cell is key.
func cell(tables []experiments.Table, id, key, col string) (float64, error) {
	t, vals, err := column(tables, id, col)
	if err != nil {
		return 0, err
	}
	for r, row := range t.Rows {
		if row[0] == key {
			return number(vals[r])
		}
	}
	return 0, fmt.Errorf("table %s has no %q row", id, key)
}

// number parses a cell such as "1.84x", "27.04ms" or "4800".
func number(s string) (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimRight(s, "xms"), 64)
	if err != nil {
		return 0, fmt.Errorf("cell %q is not a number", s)
	}
	return v, nil
}

// swapSpeedup is the mean of Table VI's per-workload average speedups.
func swapSpeedup(tables []experiments.Table) (float64, error) {
	_, vals, err := column(tables, "tab6", "average")
	if err != nil {
		return 0, err
	}
	if len(vals) == 0 {
		return 0, fmt.Errorf("tab6 has no rows")
	}
	sum := 0.0
	for _, s := range vals {
		v, err := number(s)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum / float64(len(vals)), nil
}

// fleetSpeedup is the arena's static-ssd over xdm makespan.
func fleetSpeedup(tables []experiments.Table) (float64, error) {
	static, err := cell(tables, "arena", "static-ssd", "makespan")
	if err != nil {
		return 0, err
	}
	xdm, err := cell(tables, "arena", "xdm", "makespan")
	if err != nil {
		return 0, err
	}
	if xdm <= 0 {
		return 0, fmt.Errorf("arena xdm makespan is %v", xdm)
	}
	return static / xdm, nil
}

// worstFitP99 is the worst-fit policy's p99 placement delay.
func worstFitP99(tables []experiments.Table) (float64, error) {
	return cell(tables, "policyarena", "worst-fit", "p99 delay")
}

// xdmKnee is the highest offered rate the xdm configuration sustained: the
// ramp stops at the first overloaded rung.
func xdmKnee(tables []experiments.Table) (float64, error) {
	t, offered, err := column(tables, "serving", "offered")
	if err != nil {
		return 0, err
	}
	_, verdict, err := column(tables, "serving", "verdict")
	if err != nil {
		return 0, err
	}
	knee := 0.0
	for r, row := range t.Rows {
		if row[0] != "xdm" || verdict[r] != "ok" {
			continue
		}
		v, err := number(offered[r])
		if err != nil {
			return 0, err
		}
		knee = math.Max(knee, v)
	}
	if knee == 0 {
		return 0, fmt.Errorf("serving: xdm sustained no rate")
	}
	return knee, nil
}
