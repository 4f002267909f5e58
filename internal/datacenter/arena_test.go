package datacenter

import (
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/workload"
)

// arenaTestTemplates is a small two-shape request pool.
func arenaTestTemplates() []cluster.App {
	small := workload.Spec{
		Name: "arena-small", FootprintPages: 128, AnonFraction: 1.0, Coverage: 1.0,
		SegmentLen: 64, SeqShare: 0.2, RunLen: 16,
		HotShare: 0.2, HotProb: 0.8, WriteFraction: 0.2,
		ComputePerAccess: 400 * sim.Nanosecond, MainAccesses: 512,
	}
	big := small
	big.Name = "arena-big"
	big.FootprintPages = 256
	big.MainAccesses = 768
	big.SeqShare = 0.5
	return []cluster.App{
		{Spec: small, Cores: 1},
		{Spec: big, Cores: 1},
	}
}

func arenaTestConfig(shards, workers int) ArenaConfig {
	return ArenaConfig{
		Nodes:        12,
		Shards:       shards,
		ShardWorkers: workers,
		CoresPerNode: 4,
		PagesPerNode: 1024,
		XDM:          true,
		Templates:    arenaTestTemplates(),
		Tasks:        48,
		SLO:          50 * sim.Millisecond,
		Seed:         1,
	}
}

func TestArenaClosedLoopCompletes(t *testing.T) {
	res := NewArena(arenaTestConfig(2, 1)).Run()
	if res.Completed != 48 || res.Offered != 48 {
		t.Fatalf("completed %d of %d offered, want all 48", res.Completed, res.Offered)
	}
	if res.InFlight != 0 {
		t.Fatalf("in flight %d after closed-loop drain", res.InFlight)
	}
	if res.Makespan <= 0 {
		t.Fatalf("makespan %v", res.Makespan)
	}
	if res.DelayP50 < 0 || res.DelayP99 < res.DelayP50 {
		t.Fatalf("delay quantiles inverted: p50 %v p99 %v", res.DelayP50, res.DelayP99)
	}
	if res.Events == 0 {
		t.Fatal("no events counted")
	}
}

func TestArenaDeterministicAcrossShardsAndWorkers(t *testing.T) {
	ref := NewArena(arenaTestConfig(1, 1)).Run()
	for _, tc := range []struct{ shards, workers int }{
		{2, 1}, {2, 2}, {4, 4}, {8, 8},
	} {
		got := NewArena(arenaTestConfig(tc.shards, tc.workers)).Run()
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("shards=%d workers=%d diverged from serial reference:\nref %+v\ngot %+v",
				tc.shards, tc.workers, ref, got)
		}
	}
}

func TestArenaXDMOutperformsStatic(t *testing.T) {
	xdm := NewArena(arenaTestConfig(2, 1)).Run()
	cfg := arenaTestConfig(2, 1)
	cfg.XDM = false
	static := NewArena(cfg).Run()
	if static.Completed != xdm.Completed {
		t.Fatalf("unequal work: static %d, xdm %d", static.Completed, xdm.Completed)
	}
	if xdm.Makespan >= static.Makespan {
		t.Fatalf("xdm makespan %v not better than static %v", xdm.Makespan, static.Makespan)
	}
}

func TestArenaOpenLoop(t *testing.T) {
	cfg := arenaTestConfig(2, 2)
	cfg.Tasks = 0
	cfg.Arrivals = workload.Poisson{RPS: 400}
	cfg.Duration = 200 * sim.Millisecond
	cfg.Drain = 100 * sim.Millisecond
	res := NewArena(cfg).Run()
	if res.Offered == 0 {
		t.Fatal("no arrivals")
	}
	if res.Completed == 0 {
		t.Fatal("nothing completed")
	}
	if res.Offered < res.Refused+res.Completed {
		t.Fatalf("accounting broken: offered %d < refused %d + completed %d",
			res.Offered, res.Refused, res.Completed)
	}
	if res.Makespan != cfg.Duration+cfg.Drain {
		t.Fatalf("open-loop makespan %v, want horizon %v", res.Makespan, cfg.Duration+cfg.Drain)
	}

	// Open-loop runs must be deterministic across layouts too.
	ref := res
	for _, tc := range []struct{ shards, workers int }{{1, 1}, {8, 4}} {
		c := cfg
		c.Shards, c.ShardWorkers = tc.shards, tc.workers
		if got := NewArena(c).Run(); !reflect.DeepEqual(ref, got) {
			t.Fatalf("open-loop shards=%d workers=%d diverged:\nref %+v\ngot %+v",
				tc.shards, tc.workers, ref, got)
		}
	}
}

func TestArenaOverloadRefuses(t *testing.T) {
	cfg := arenaTestConfig(2, 1)
	cfg.Tasks = 0
	cfg.Nodes = 2
	cfg.CoresPerNode = 1
	cfg.PagesPerNode = 256
	cfg.Arrivals = workload.Poisson{RPS: 20000}
	cfg.Duration = 100 * sim.Millisecond
	cfg.Drain = 50 * sim.Millisecond
	res := NewArena(cfg).Run()
	if res.Refused == 0 {
		t.Fatalf("overload never refused: %+v", res)
	}
}
