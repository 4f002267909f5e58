package experiments

import (
	"repro/internal/baseline"
	"repro/internal/datacenter"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/workload"
)

func init() {
	register("internode", InterNode)
}

// InterNode closes the loop on the scalability story: instead of the MBE
// arithmetic, a memory-pressured node actually runs its workloads while
// borrowing an idle peer's DRAM over the cluster network, and the table
// compares that against squeezing onto the node-local SSD. This is the
// inter-node far memory of the paper's related-work substrate
// (Infiniswap/Fastswap-style remote DRAM) inside the multi-backend system.
func InterNode(o Options) []Table {
	t := Table{
		ID:    "internode",
		Title: "Inter-node far memory: borrow a peer's DRAM vs local-SSD squeeze",
		Columns: []string{"workload", "local-SSD runtime", "remote-DRAM runtime", "speedup",
			"borrower util", "donor util (after lend)"},
	}
	names := []string{"lg-bfs", "bert", "kmeans"}
	type internodeRow struct {
		ssdRT, rdmaRT sim.Duration
		bu, du        float64
	}
	rows := runGrid(o, len(names), func(i int) internodeRow {
		spec := o.scaled(workload.ByName(names[i]))

		run := func(remote bool) (sim.Duration, float64, float64) {
			eng := sim.NewEngine()
			c := datacenter.New(eng, datacenter.Config{
				Nodes: 2, CoresPerNode: 20,
				PagesPerNode: spec.FootprintPages * 2,
			})
			borrower, donor := c.Node(0), c.Node(1)
			// The borrower is memory-pressured: most of its DRAM is held by
			// resident tenants, leaving half this workload's footprint.
			if err := borrower.Reserve(spec.FootprintPages*2 - spec.FootprintPages/2); err != nil {
				panic(err)
			}
			env := baseline.Env{Machine: borrower.Machine, FileBackend: "ssd"}

			var setup baseline.XDMSetup
			f := baseline.Profile(spec, o.Seed)
			if remote {
				rm, err := c.Lend(donor, borrower, spec.FootprintPages)
				if err != nil {
					panic(err)
				}
				setup = baseline.PrepareXDM(env, rm, spec, f, 0.5, 1.4, o.Seed)
			} else {
				setup = baseline.PrepareXDM(env, borrower.Machine.Backend("ssd"), spec, f, 0.5, 1.4, o.Seed)
			}
			var stats task.Stats
			task.New(setup.Config).Start(func(s task.Stats) { stats = s })
			eng.Run()
			return stats.Runtime, borrower.MemUtilization(), donor.MemUtilization()
		}

		ssdRT, _, _ := run(false)
		rdmaRT, bu, du := run(true)
		return internodeRow{ssdRT: ssdRT, rdmaRT: rdmaRT, bu: bu, du: du}
	})
	for i, name := range names {
		r := rows[i]
		t.AddRow(name, ms(r.ssdRT), ms(r.rdmaRT), ratio(float64(r.ssdRT)/float64(r.rdmaRT)),
			pct(r.bu), pct(r.du))
	}
	t.Notes = append(t.Notes,
		"borrowing idle remote DRAM turns a hot node's SSD-bound swap into rack-speed far memory — the task-level mechanism behind Fig 19's balancing; see fig19-sim for the cluster-scale effect")
	return []Table{t}
}
