package cluster

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/baseline"
	"repro/internal/clustertrace"
	"repro/internal/sim"
)

func balanceCfg(p clustertrace.Profile, a, b float64) BalanceSimConfig {
	return BalanceSimConfig{
		Machines: 200, PagesPerMachine: 16384,
		Profile: p, Alpha: a, Beta: b, Seed: 5,
	}
}

func TestBalanceSimConservation(t *testing.T) {
	res := RunBalanceSim(balanceCfg(clustertrace.Alibaba2018(), 0.5, 0.8))
	var before, after float64
	for i := range res.Before {
		before += res.Before[i]
		after += res.After[i]
	}
	if math.Abs(before-after) > 1e-6 {
		t.Fatalf("memory not conserved: %v vs %v", before, after)
	}
	for i := range res.After {
		// No donor filled beyond alpha; no source drained below beta
		// (within one page of rounding).
		eps := 1.0/16384 + 1e-9
		if res.Before[i] < 0.5 && res.After[i] > 0.5+eps {
			t.Fatalf("donor %d overfilled: %v -> %v", i, res.Before[i], res.After[i])
		}
		if res.Before[i] > 0.8 && res.After[i] < 0.8-eps {
			t.Fatalf("source %d over-drained: %v -> %v", i, res.Before[i], res.After[i])
		}
	}
}

func TestBalanceSimImprovesMBE(t *testing.T) {
	res := RunBalanceSim(balanceCfg(clustertrace.Alibaba2018(), 0.8, 0.8))
	if res.PagesMoved == 0 {
		t.Fatal("no pages moved on a high-pressure trace")
	}
	if res.Improvement <= 0 {
		t.Fatalf("balancing did not improve MBE: %v -> %v", res.MBEBefore, res.MBEAfter)
	}
	if res.RebalanceTime <= 0 {
		t.Fatal("no time elapsed")
	}
	if res.AggregateGBps <= 0 {
		t.Fatal("no aggregate bandwidth")
	}
	if res.SourceMachines == 0 || res.DonorMachines == 0 {
		t.Fatal("no participants identified")
	}
}

func TestBalanceSimMatchesAnalyticMBE(t *testing.T) {
	// The simulated rebalancing must land near the closed-form Balance().
	cfg := balanceCfg(clustertrace.Alibaba2017(), 0.31, 0.31)
	res := RunBalanceSim(cfg)
	utils := clustertrace.Snapshot(cfg.Profile, cfg.Machines, cfg.Seed)
	analytic := MBEImprovement(utils, 0.31, 0.31)
	if math.Abs(res.Improvement-analytic) > 0.02 {
		t.Fatalf("simulated improvement %.4f vs analytic %.4f", res.Improvement, analytic)
	}
}

func TestBalanceSimSwitchBound(t *testing.T) {
	// Hundreds of sources on 10 GB/s NICs oversubscribe the switch, so
	// aggregate bandwidth is pinned at the switch rate.
	res := RunBalanceSim(balanceCfg(clustertrace.Alibaba2018(), 0.5, 0.8))
	sw := balanceSwitchBandwidth.GB()
	if res.AggregateGBps > 1.05*sw {
		t.Fatalf("aggregate %.2f GB/s exceeds the %.0f GB/s switch", res.AggregateGBps, sw)
	}
	if res.AggregateGBps < 0.9*sw {
		t.Fatalf("switch badly underutilized: %.2f GB/s of %.0f", res.AggregateGBps, sw)
	}
}

func TestBalanceSimInvertedThresholds(t *testing.T) {
	a := RunBalanceSim(balanceCfg(clustertrace.Alibaba2018(), 0.8, 0.5))
	b := RunBalanceSim(balanceCfg(clustertrace.Alibaba2018(), 0.5, 0.8))
	if a.PagesMoved != b.PagesMoved {
		t.Fatal("threshold order should be normalized")
	}
}

func TestBalanceSimNothingToDo(t *testing.T) {
	// Thresholds outside the distribution: no movement, zero time.
	res := RunBalanceSim(balanceCfg(clustertrace.Alibaba2017(), 0.001, 0.999))
	if res.PagesMoved != 0 {
		t.Fatalf("moved %d pages with nothing to balance", res.PagesMoved)
	}
	if res.Improvement != 0 {
		t.Fatal("improvement without movement")
	}
}

func arrivalEnv(t *testing.T) (baseline.Env, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine()
	return clusterEnv(eng), eng
}

func TestArrivalSimCompletesEverything(t *testing.T) {
	env, _ := arrivalEnv(t)
	WarmFleet(env, 4, 4096)
	res := RunArrivalSim(env, ArrivalSimConfig{
		Templates:        []App{{Spec: friendlySpec(), SLO: 1.6, Cores: 1}},
		Arrivals:         12,
		MeanInterarrival: 10 * sim.Millisecond,
		Seed:             3,
	})
	if res.Completed+res.Rejected != 12 {
		t.Fatalf("completed %d + rejected %d != 12", res.Completed, res.Rejected)
	}
	if res.Completed < 10 {
		t.Fatalf("only %d completed", res.Completed)
	}
	total := res.Rejected
	for _, n := range res.Placed {
		total += n
	}
	if total != 12 {
		t.Fatalf("placement accounting: %v + %d != 12", res.Placed, res.Rejected)
	}
}

func TestArrivalSimWarmPoolBeatsCold(t *testing.T) {
	run := func(warm bool) ArrivalSimResult {
		env, _ := arrivalEnv(t)
		if warm {
			WarmFleet(env, 4, 4096)
		}
		return RunArrivalSim(env, ArrivalSimConfig{
			Templates:        []App{{Spec: friendlySpec(), SLO: 1.6, Cores: 1}},
			Arrivals:         8,
			MeanInterarrival: 5 * sim.Millisecond,
			Seed:             4,
		})
	}
	w, c := run(true), run(false)
	if w.MeanPlacementDelay >= c.MeanPlacementDelay {
		t.Fatalf("warm placement delay %v not below cold %v",
			w.MeanPlacementDelay, c.MeanPlacementDelay)
	}
	if w.Placed[ViaCreate] >= c.Placed[ViaCreate] {
		t.Fatalf("warm pool should create fewer VMs: %v vs %v", w.Placed, c.Placed)
	}
}

func TestArrivalSimDeterministic(t *testing.T) {
	run := func() ArrivalSimResult {
		env, _ := arrivalEnv(t)
		WarmFleet(env, 4, 4096)
		return RunArrivalSim(env, ArrivalSimConfig{
			Templates:        []App{{Spec: friendlySpec(), SLO: 1.6, Cores: 1}, {Spec: sensitiveSpec(), SLO: 1.4, Cores: 1}},
			Arrivals:         10,
			MeanInterarrival: 2 * sim.Millisecond,
			Seed:             5,
		})
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("arrival sim nondeterministic:\n%+v\n%+v", a, b)
	}
}
