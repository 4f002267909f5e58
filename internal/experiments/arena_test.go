package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/serve"
)

// TestArenaShardWorkersDeterministic is the sharded-kernel regression gate
// at the experiment layer: the arena experiment rendered serially
// (ShardWorkers=1) and sharded eight ways must be byte-identical — domain
// partitioning and barrier scheduling must never leak into results. The
// grid worker knob is crossed in to prove the two parallelism axes compose.
func TestArenaShardWorkersDeterministic(t *testing.T) {
	serial := TestOptions()
	serial.ShardWorkers = 1
	ref := renderExperiment(t, "arena", serial)
	for _, tc := range []struct{ shardWorkers, workers int }{
		{2, 1}, {8, 1}, {8, 4},
	} {
		o := serial
		o.ShardWorkers = tc.shardWorkers
		o.Workers = tc.workers
		got := renderExperiment(t, "arena", o)
		if !bytes.Equal(ref, got) {
			t.Fatalf("ShardWorkers=%d Workers=%d output differs from serial:\n--- serial\n%s\n--- sharded\n%s",
				tc.shardWorkers, tc.workers, ref, got)
		}
	}
}

// TestArenaExperimentShape sanity-checks the rendered comparison: both
// fleets complete all tasks and xdm reports the better makespan.
func TestArenaExperimentShape(t *testing.T) {
	rows := ArenaData(TestOptions())
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	var static, xdm ArenaRow
	for _, r := range rows {
		if r.Config == "xdm" {
			xdm = r
		} else {
			static = r
		}
		if r.Result.Completed != r.Tasks {
			t.Fatalf("%s completed %d of %d tasks", r.Config, r.Result.Completed, r.Tasks)
		}
		if r.Result.Events == 0 {
			t.Fatalf("%s counted no events", r.Config)
		}
	}
	if xdm.Result.Makespan >= static.Result.Makespan {
		t.Fatalf("xdm makespan %v not better than static %v",
			xdm.Result.Makespan, static.Result.Makespan)
	}
}

// TestArenaSweepRungDeterministicAcrossShards runs one open-loop capacity
// rung of the arena sweep at ShardWorkers 1 and 8 and requires identical
// serving results — the capacity path shares the determinism guarantee.
func TestArenaSweepRungDeterministicAcrossShards(t *testing.T) {
	run := func(shardWorkers int) serve.Result {
		o := TestOptions()
		o.ShardWorkers = shardWorkers
		sweeps := ArenaSweeps(o)
		for _, s := range sweeps {
			if s.Name == "arena-xdm" {
				return s.Run(s.Cap.StartRPS, s.Cap.Window, s.Cap.Window/4)
			}
		}
		t.Fatal("arena-xdm sweep not found")
		return serve.Result{}
	}
	a, b := run(1), run(8)
	if a != b {
		t.Fatalf("rung diverged across shard counts:\nserial  %+v\nsharded %+v", a, b)
	}
	if a.Offered == 0 || a.Completed == 0 {
		t.Fatalf("rung served nothing: %+v", a)
	}
}

// TestArenaSweepsTrip ramps both arena configurations to overload at test
// scale, proving the rung runner integrates with capacity discovery and the
// xdm fleet sustains strictly more load.
func TestArenaSweepsTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-rung arena sweep; skipped in -short mode")
	}
	o := TestOptions()
	results := Capacity(o, ArenaSweeps(o))
	knees := map[string]float64{}
	for _, r := range results {
		if !r.Tripped {
			t.Errorf("%s ramp exhausted without overload (max sustainable %.0f)", r.Name, r.MaxSustainableRPS)
		}
		knees[r.Name] = r.MaxSustainableRPS
	}
	if knees["arena-xdm"] <= knees["arena-static"] {
		t.Fatalf("arena-xdm knee %.0f not above arena-static %.0f",
			knees["arena-xdm"], knees["arena-static"])
	}
	out := serve.RenderCapacity(results)
	for _, want := range []string{"## capacity: arena-static", "## capacity: arena-xdm", "OVERLOAD"} {
		if !strings.Contains(out, want) {
			t.Fatalf("capacity report missing %q:\n%s", want, out)
		}
	}
}
