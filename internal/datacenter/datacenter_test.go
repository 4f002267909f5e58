package datacenter

import (
	"math"
	"testing"

	"repro/internal/baseline"
	"repro/internal/sim"
	"repro/internal/swap"
	"repro/internal/task"
	"repro/internal/workload"
)

func newCluster(eng *sim.Engine, nodes int) *Cluster {
	return New(eng, Config{Nodes: nodes, CoresPerNode: 20, PagesPerNode: 16384})
}

func TestLendAccounting(t *testing.T) {
	eng := sim.NewEngine()
	c := newCluster(eng, 2)
	donor, borrower := c.Node(0), c.Node(1)

	if _, err := c.Lend(donor, borrower, 4096); err != nil {
		t.Fatal(err)
	}
	if donor.DonatedPages != 4096 {
		t.Fatalf("accounting wrong: donated=%d", donor.DonatedPages)
	}
	if u := donor.MemUtilization(); math.Abs(u-0.25) > 1e-9 {
		t.Fatalf("donor utilization %v, want 0.25 (pinned donation)", u)
	}
}

func TestLendRefusals(t *testing.T) {
	eng := sim.NewEngine()
	c := newCluster(eng, 2)
	if _, err := c.Lend(c.Node(0), c.Node(0), 10); err == nil {
		t.Fatal("self-lend accepted")
	}
	if _, err := c.Lend(c.Node(0), c.Node(1), 1<<30); err == nil {
		t.Fatal("over-lend accepted")
	}
	// Partial donation then over-ask.
	if _, err := c.Lend(c.Node(0), c.Node(1), 16000); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Lend(c.Node(0), c.Node(1), 1000); err == nil {
		t.Fatal("lend beyond free-for-donation accepted")
	}
}

func TestReserve(t *testing.T) {
	eng := sim.NewEngine()
	c := newCluster(eng, 1)
	n := c.Node(0)
	if err := n.Reserve(8192); err != nil {
		t.Fatal(err)
	}
	if u := n.MemUtilization(); math.Abs(u-0.5) > 1e-9 {
		t.Fatalf("utilization %v, want 0.5", u)
	}
	if err := n.Reserve(16384); err == nil {
		t.Fatal("over-reserve accepted")
	}
}

func TestRemoteMemoryTransfer(t *testing.T) {
	eng := sim.NewEngine()
	c := newCluster(eng, 2)
	rm, err := c.Lend(c.Node(0), c.Node(1), 4096)
	if err != nil {
		t.Fatal(err)
	}
	var lat sim.Duration
	rm.Submit(swap.Extent{Pages: 1, Sequential: true}, func(l sim.Duration) { lat = l })
	eng.Run()
	// 3µs RTT + 4KiB over 10GB/s NIC ≈ 3.4µs.
	if got := lat.Microseconds(); math.Abs(got-3.41) > 0.1 {
		t.Fatalf("remote page latency %.2fµs, want ~3.4µs", got)
	}
	if rm.Kind().String() != "dram" || rm.inflight.Capacity() != 4 {
		t.Fatal("backend metadata wrong")
	}
	rm.SetWidth(0)
	if rm.inflight.Capacity() != 1 {
		t.Fatal("width clamp")
	}
}

func TestRemoteMemoryNetworkContention(t *testing.T) {
	// Two borrowers sharing one donor NIC: aggregate bounded by that NIC.
	eng := sim.NewEngine()
	c := newCluster(eng, 3)
	rm1, _ := c.Lend(c.Node(0), c.Node(1), 2048)
	rm2, _ := c.Lend(c.Node(0), c.Node(2), 2048)
	const pages = 2048
	done := 0
	rm1.Submit(swap.Extent{Pages: pages, Sequential: true}, func(sim.Duration) { done++ })
	rm2.Submit(swap.Extent{Pages: pages, Sequential: true}, func(sim.Duration) { done++ })
	eng.Run()
	if done != 2 {
		t.Fatal("transfers incomplete")
	}
	bytes := float64(2*pages) * 4096
	rate := bytes / eng.Now().Seconds()
	if rate > 10.1e9 {
		t.Fatalf("aggregate %.2f GB/s exceeds the donor's 10 GB/s NIC", rate/1e9)
	}
	if rate < 9e9 {
		t.Fatalf("donor NIC underutilized: %.2f GB/s", rate/1e9)
	}
}

// End to end: a memory-pressured node runs a real workload swapping to a
// peer's DRAM, and performs comparably to node-local remote-DRAM far memory.
func TestTaskOnRemoteMemory(t *testing.T) {
	eng := sim.NewEngine()
	c := newCluster(eng, 2)
	borrower, donor := c.Node(0), c.Node(1)

	spec := workload.Spec{
		Name: "borrowed", Class: workload.Compute, MaxMemGiB: 1,
		FootprintPages: 2048, AnonFraction: 1.0, Coverage: 1.0,
		SegmentLen: 512, SeqShare: 0.5, RunLen: 32,
		HotShare: 0.2, HotProb: 0.7, WriteFraction: 0.3,
		ComputePerAccess: 150 * sim.Nanosecond, MainAccesses: 8192, Threads: 2,
	}
	rm, err := c.Lend(donor, borrower, spec.FootprintPages)
	if err != nil {
		t.Fatal(err)
	}
	env := baseline.Env{Machine: borrower.Machine, FileBackend: "ssd"}
	setup := baseline.PrepareXDM(env, rm, spec, baseline.Profile(spec, 1), 0.5, 1.4, 1)
	var stats task.Stats
	task.New(setup.Config).Start(func(s task.Stats) { stats = s })
	eng.Run()
	if stats.PagesIn == 0 || stats.MajorFaults == 0 {
		t.Fatalf("no remote swap traffic: %+v", stats)
	}
	if stats.Runtime <= 0 {
		t.Fatal("task did not run")
	}
}
