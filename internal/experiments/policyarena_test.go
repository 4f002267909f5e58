package experiments

import (
	"bytes"
	"testing"

	"repro/internal/datacenter"
	"repro/internal/place"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestPolicyArenaShape requires the head-to-head table to actually separate
// the competing policies: on the shared replay at least three policies must
// be pairwise distinguishable on the balance axes (MBE, peak stranding, p99
// placement delay), and every policy must serve the same offered load. It
// runs a scale tier up from the golden (which pins exact values at scale 8)
// to prove the separation is a property of the replay, not of one scale,
// while keeping the five-way race affordable.
func TestPolicyArenaShape(t *testing.T) {
	o := TestOptions()
	o.Scale = 16
	o.Workers = 4
	rows := PolicyArenaData(o)
	if len(rows) != len(PolicyArenaPolicies()) {
		t.Fatalf("got %d rows, want %d", len(rows), len(PolicyArenaPolicies()))
	}
	type axes struct {
		mbe, stranded float64
		p99           int64
	}
	distinct := map[axes]bool{}
	offered := rows[0].Result.Offered
	for _, r := range rows {
		res := r.Result
		if res.Offered != offered {
			t.Errorf("%s offered %d, want %d (the replay is shared)", r.Policy, res.Offered, offered)
		}
		if res.Completed == 0 {
			t.Errorf("%s completed nothing", r.Policy)
		}
		if res.Completed+res.Refused > res.Offered {
			t.Errorf("%s conservation broken: completed %d + refused %d > offered %d",
				r.Policy, res.Completed, res.Refused, res.Offered)
		}
		distinct[axes{res.MBE, res.StrandedFrac, int64(res.DelayP99)}] = true
	}
	if len(distinct) < 3 {
		t.Fatalf("only %d distinct (mbe, stranded, p99) outcomes across %d policies — the replay does not separate them",
			len(distinct), len(rows))
	}
}

// TestPolicyArenaOneShotRefusesUnderOverload pins the extender plumbing with
// a deliberately drowned two-node fleet: under the same flood the one-shot
// policy must refuse work it cannot place immediately while plain worst-fit
// queues everything — proof the no-retry extender reaches the arena's fill
// loop rather than dying in the spec parser. (At golden options the full
// replay shows the same split: one-shot refuses 328, worst-fit 0.)
func TestPolicyArenaOneShotRefusesUnderOverload(t *testing.T) {
	o := TestOptions()
	o.Scale = 32
	run := func(spec string) datacenter.ArenaResult {
		cfg := arenaConfig(o, 2, 0, true)
		apps, foot := policyArenaTemplates(o)
		cfg.Templates = apps
		cfg.PagesPerNode = 6 * foot
		cfg.Policy = place.Builtin(spec)
		cfg.Arrivals = workload.Poisson{RPS: 4000}
		cfg.Duration = sim.Second / 4
		cfg.Drain = sim.Second / 16
		return datacenter.NewArena(cfg).Run()
	}
	oneShot := run("one-shot")
	if oneShot.Refused == 0 {
		t.Error("one-shot refused nothing under a drowned fleet; the no-retry extender is not reaching the arena")
	}
	worstFit := run("worst-fit")
	if oneShot.Refused <= worstFit.Refused {
		t.Errorf("one-shot refused %d, worst-fit %d — refuse-instead-of-queue should refuse strictly more",
			oneShot.Refused, worstFit.Refused)
	}
}

// TestPolicyArenaShardWorkersDeterministic extends the sharded-kernel gate to
// the policy grid: every policy's run must be byte-identical whether its
// arena executes serially or sharded eight ways, with grid workers crossed
// in to prove policy fan-out composes with both parallelism axes. Scale 32
// shrinks every request and the offered rate with it, keeping four full
// renders of the five-policy grid affordable; determinism is scale-blind.
func TestPolicyArenaShardWorkersDeterministic(t *testing.T) {
	serial := TestOptions()
	serial.Scale = 32
	serial.ShardWorkers = 1
	ref := renderExperiment(t, "policyarena", serial)
	for _, tc := range []struct{ shardWorkers, workers int }{
		{2, 1}, {8, 1}, {8, 4},
	} {
		o := serial
		o.ShardWorkers = tc.shardWorkers
		o.Workers = tc.workers
		got := renderExperiment(t, "policyarena", o)
		if !bytes.Equal(ref, got) {
			t.Fatalf("ShardWorkers=%d Workers=%d output differs from serial:\n--- serial\n%s\n--- sharded\n%s",
				tc.shardWorkers, tc.workers, ref, got)
		}
	}
}

// TestPolicyArenaSweepNames locks the capacity-sweep surface xdmsim
// -capacity appends: one sweep per built-in policy, ramped like the xdm
// arena.
func TestPolicyArenaSweepNames(t *testing.T) {
	sweeps := PolicyArenaSweeps(TestOptions())
	if len(sweeps) != len(PolicyArenaPolicies()) {
		t.Fatalf("got %d sweeps, want %d", len(sweeps), len(PolicyArenaPolicies()))
	}
	for i, s := range sweeps {
		want := "policy-" + PolicyArenaPolicies()[i]
		if s.Name != want {
			t.Errorf("sweep %d named %q, want %q", i, s.Name, want)
		}
		if s.Run == nil {
			t.Errorf("sweep %q has no rung runner", s.Name)
		}
		if s.Cap.StartRPS <= 0 || s.Cap.MaxRPS < s.Cap.StartRPS {
			t.Errorf("sweep %q has a degenerate ramp: %+v", s.Name, s.Cap)
		}
	}
}
