package experiments

import (
	"repro/internal/baseline"
	"repro/internal/device"
	"repro/internal/mem"
	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/vm"
	"repro/internal/workload"
)

func init() {
	register("cxl", CXLModes)
}

// CXLModes explores Section IV-B's discussion of new cache-coherent memory:
// "the PCIe-based CXL memory can act as a local NUMA node with large memory
// space and no CPU, or one of the far memory backends". For each workload,
// half the footprint lives in socket DRAM and the other half overflows to
// CXL under three regimes:
//
//   - rdma-swap:   no CXL; the overflow swaps to RDMA far memory (baseline)
//   - cxl-numa:    CXL exposed as a CPU-less NUMA node; overflow pages are
//     *mapped*, not swapped — every access pays the CXL load
//     latency but there are no faults
//   - cxl-backend: CXL attached as a swap backend; overflow pages swap at
//     the tuned granularity
func CXLModes(o Options) []Table {
	t := Table{
		ID:      "cxl",
		Title:   "CXL as CPU-less NUMA node vs as far-memory backend (Sec IV-B)",
		Columns: []string{"workload", "rdma-swap", "cxl-numa", "cxl-backend", "best"},
	}
	names := []string{"bert", "chat-int", "kmeans", "stream"}
	modes := []string{"rdma-swap", "cxl-numa", "cxl-backend"}
	grid := runGrid2(o, len(names), len(modes), func(i, j int) sim.Duration {
		spec := o.scaled(workload.ByName(names[i]))
		dramPages := spec.FootprintPages / 2

		measure := func(mode string) sim.Duration {
			eng := sim.NewEngine()
			m := vm.NewMachine(eng, pcie.Gen4, 16, 20, 64*workload.PagesPerGiB)
			m.AttachDevice(device.SpecTestbedSSD("ssd"))
			m.AttachDevice(device.SpecConnectX5("rdma"))
			m.AttachDevice(device.SpecCXL("cxl"))
			env := baseline.Env{Machine: m, FileBackend: "ssd"}
			f := baseline.Profile(spec, o.Seed)

			switch mode {
			case "cxl-numa":
				// Everything mapped; the second "node" is the CXL expander.
				setup := baseline.PrepareXDM(env, m.Backend("rdma"), spec, f, 1.0, 1.4, o.Seed)
				cfg := setup.Config
				topo := mem.NewTopology(dramPages)
				topo.Nodes = topo.Nodes[:1] // single socket
				topo.AddCXLNode(spec.FootprintPages)
				cfg.Topo = topo
				cfg.NUMAPolicy = mem.BindLocal // fill DRAM first, spill to CXL
				return runTask(eng, cfg).Runtime
			case "cxl-backend":
				setup := baseline.PrepareXDM(env, m.Backend("cxl"), spec, f, 0.5, 1.4, o.Seed)
				return runTask(eng, setup.Config).Runtime
			default: // rdma-swap
				setup := baseline.PrepareXDM(env, m.Backend("rdma"), spec, f, 0.5, 1.4, o.Seed)
				return runTask(eng, setup.Config).Runtime
			}
		}

		return measure(modes[j])
	})
	for i, name := range names {
		rdma, numa, backend := grid[i][0], grid[i][1], grid[i][2]
		best := "cxl-numa"
		if backend < numa && backend < rdma {
			best = "cxl-backend"
		} else if rdma < numa && rdma < backend {
			best = "rdma-swap"
		}
		t.AddRow(name, ms(rdma), ms(numa), ms(backend), best)
	}
	t.Notes = append(t.Notes,
		"CXL-as-NUMA removes fault overhead entirely (every access pays the load latency instead); CXL-as-backend keeps DRAM-speed hits and batches the misses — which wins depends on the access pattern")
	return []Table{t}
}
