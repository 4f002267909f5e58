package experiments

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/sim"
	"repro/internal/workload"
)

func init() {
	register("tab6", Table6)
}

// table6Ratio is the "appropriate local memory ratio" all Table VI runs use
// (both systems see identical memory pressure).
const table6Ratio = 0.5

// table6Backends are the three backends the paper compares on.
var table6Backends = []string{"dram", "ssd", "rdma"}

// Table6Cell is one workload×backend comparison.
type Table6Cell struct {
	Workload string
	Backend  string
	BaseSys  sim.Duration
	XDMSys   sim.Duration
}

// Speedup reports the kernel-time (sys) speedup of xDM over the baseline.
func (c Table6Cell) Speedup() float64 {
	if c.XDMSys == 0 {
		return 0
	}
	return float64(c.BaseSys) / float64(c.XDMSys)
}

// Table6Data runs the full Table VI grid — every workload on every backend,
// baseline and xDM, each an independent engine run farmed out to the worker
// pool — and returns raw cells in stable (workload, backend) order, letting
// tests and the benchmark harness assert on the numbers directly.
func Table6Data(o Options) []Table6Cell {
	specs := workload.Specs()
	return runGrid(o, len(specs)*len(table6Backends), func(i int) Table6Cell {
		s := o.scaled(specs[i/len(table6Backends)])
		backend := table6Backends[i%len(table6Backends)]
		sys := baseline.SystemsForBackend(backend)

		// Baseline run.
		engB := sim.NewEngine()
		envB := testbed(engB)
		cfgB := baseline.Prepare(sys, envB, envB.Machine.Backend(backend), s, table6Ratio, o.Seed)
		statsB := runTask(engB, cfgB)

		// xDM run on the same backend.
		engX := sim.NewEngine()
		envX := testbed(engX)
		setup := baseline.PrepareXDM(envX, envX.Machine.Backend(backend), s, baseline.Profile(s, o.Seed), table6Ratio, 1.4, o.Seed)
		statsX := runTask(engX, setup.Config)

		return Table6Cell{
			Workload: s.Name, Backend: backend,
			BaseSys: statsB.SysTime, XDMSys: statsX.SysTime,
		}
	})
}

// Table6 reproduces Table VI: the swap performance (sys-time) speedup of
// xDM over Linux swap (SSD backend) and Fastswap (RDMA/DRAM backends), per
// workload, plus the derived swap-feature classification.
func Table6(o Options) []Table {
	cells := Table6Data(o)
	byWorkload := map[string]map[string]Table6Cell{}
	for _, c := range cells {
		if byWorkload[c.Workload] == nil {
			byWorkload[c.Workload] = map[string]Table6Cell{}
		}
		byWorkload[c.Workload][c.Backend] = c
	}

	t := Table{
		ID:    "tab6",
		Title: "Swap performance speedup of xDM vs baselines on the same backend (Table VI)",
		Columns: []string{"workload", "paper S/F", "Sp. DRAM", "Sp. SSD", "Sp. RDMA",
			"average", "classified"},
	}
	for _, spec := range workload.Specs() {
		row := byWorkload[spec.Name]
		avg := (row["dram"].Speedup() + row["ssd"].Speedup() + row["rdma"].Speedup()) / 3
		class := "S"
		if avg >= 1.5 {
			class = "F"
		}
		t.AddRow(spec.Name, string(spec.SwapFeature),
			ratio(row["dram"].Speedup()), ratio(row["ssd"].Speedup()), ratio(row["rdma"].Speedup()),
			ratio(avg), class)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("baselines: %s on SSD; %s on RDMA/DRAM; identical local memory ratio %.1f for both systems",
			baseline.LinuxSwap, baseline.Fastswap, table6Ratio),
		"speedup measured on kernel-level sys time, as the paper does")
	return []Table{t}
}
