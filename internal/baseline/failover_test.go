package baseline

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/workload"
)

// failoverSpec swaps heavily enough that a dead backend is detected fast.
func failoverSpec() workload.Spec {
	return workload.Spec{
		Name: "failover-probe", Class: workload.Compute,
		FootprintPages: 1024, AnonFraction: 1, Coverage: 1,
		SegmentLen: 256, SeqShare: 0.2, RunLen: 4,
		HotShare: 1, HotProb: 0, WriteFraction: 0.3,
		ComputePerAccess: 50 * sim.Microsecond, MainAccesses: 1 << 16,
		Threads: 2, SwapFeature: 'F',
	}
}

func TestFailoverSwitchesOffDeadBackend(t *testing.T) {
	eng := sim.NewEngine()
	env := testEnv(eng)
	spec := failoverSpec()
	v := env.Machine.CreateVM("fo", spec.Threads, 2*spec.FootprintPages,
		[]string{"rdma0", "ssd0", "dram0"})
	if v == nil {
		t.Fatal("VM creation failed")
	}
	eng.Run()

	run := PrepareXDMFailover(env, v, spec, 0.5, 1)
	if run.Initial == "" || !v.HasWarmBackend(run.Initial) {
		t.Fatalf("initial backend %q not warm", run.Initial)
	}
	if v.ActiveBackend() != run.Initial {
		t.Fatalf("VM active %q, controller chose %q", v.ActiveBackend(), run.Initial)
	}

	tk := task.New(run.Config)
	run.Bind(tk)

	inj := faults.NewInjector(eng)
	inj.Register(env.Machine.Device(run.Initial))
	inj.Apply(faults.Schedule{Events: []faults.Event{
		{At: 200 * sim.Millisecond, Target: run.Initial, Kind: faults.Crash},
	}})

	finished := false
	var out task.Stats
	tk.Start(func(s task.Stats) { out = s; finished = true })
	eng.Run()

	if !finished {
		t.Fatal("task never finished after backend death")
	}
	if len(run.unhealthy) != 1 || !run.unhealthy[run.Initial] {
		t.Fatalf("demoted %v, want exactly the initial backend", run.unhealthy)
	}
	if len(run.Switches) != 1 {
		t.Fatalf("switches %+v, want exactly one", run.Switches)
	}
	sw := run.Switches[0]
	if sw.From != run.Initial || sw.To == run.Initial {
		t.Fatalf("switch %+v does not leave the dead backend", sw)
	}
	if v.ActiveBackend() != sw.To {
		t.Fatalf("VM active %q, switched to %q", v.ActiveBackend(), sw.To)
	}
	if out.LostPages == 0 {
		t.Fatal("failover dropped no far copies")
	}
	if out.LostRefaults == 0 {
		t.Fatal("no lost page was repaid via RefetchPenalty")
	}
}

func TestFailoverWithNoAlternativeLimpsOn(t *testing.T) {
	// Single warm backend: demotion has nowhere to go; the run must still
	// finish (every op failing through at the retry bound).
	eng := sim.NewEngine()
	env := testEnv(eng)
	spec := failoverSpec()
	spec.MainAccesses = 1 << 12 // keep the crippled tail short
	v := env.Machine.CreateVM("fo", spec.Threads, 2*spec.FootprintPages,
		[]string{"rdma0"})
	eng.Run()

	run := PrepareXDMFailover(env, v, spec, 0.5, 1)
	tk := task.New(run.Config)
	run.Bind(tk)
	inj := faults.NewInjector(eng)
	inj.Register(env.Machine.Device(run.Initial))
	inj.Apply(faults.Schedule{Events: []faults.Event{
		{At: 50 * sim.Millisecond, Target: run.Initial, Kind: faults.Crash},
	}})

	finished := false
	tk.Start(func(task.Stats) { finished = true })
	eng.Run()
	if !finished {
		t.Fatal("task hung with no failover target")
	}
	if len(run.Switches) != 0 {
		t.Fatalf("switched with no alternative: %+v", run.Switches)
	}
	if len(run.unhealthy) != 1 {
		t.Fatalf("demoted %v, want 1", run.unhealthy)
	}
}
