package experiments

import (
	"bytes"
	"testing"

	"repro/internal/faults"
	"repro/internal/sim"
)

func TestFaultRecoveryShape(t *testing.T) {
	rows := FaultRecoveryData(TestOptions())
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4 (2 scenarios x 2 systems)", len(rows))
	}
	byKey := map[string]FaultRecoveryRow{}
	for _, r := range rows {
		byKey[r.Scenario.String()+"/"+r.System] = r
		if r.PreRate <= 0 {
			t.Fatalf("%s/%s has no pre-fault throughput", r.Scenario, r.System)
		}
	}

	flapStatic, flapXDM := byKey["flap/static"], byKey["flap/xdm-failover"]
	crashStatic, crashXDM := byKey["crash/static"], byKey["crash/xdm-failover"]

	// Both systems lose the same device.
	if flapStatic.Backend != flapXDM.Backend {
		t.Fatalf("systems faulted different backends: %q vs %q",
			flapStatic.Backend, flapXDM.Backend)
	}

	// The headline claim: failure-aware switching recovers at least 2x
	// faster than riding out the outage on a static backend.
	if flapXDM.MTTR <= 0 {
		t.Fatalf("xdm-failover never recovered from the flap (MTTR=%v)", flapXDM.MTTR)
	}
	if flapStatic.MTTR <= 0 {
		t.Fatal("static baseline should recover once the flap ends")
	}
	if flapStatic.MTTR < 2*flapXDM.MTTR {
		t.Fatalf("flap MTTR static=%v vs xdm=%v: want >= 2x faster recovery",
			flapStatic.MTTR, flapXDM.MTTR)
	}

	// Permanent death: static never comes back, failover does.
	if crashStatic.MTTR >= 0 {
		t.Fatalf("static baseline recovered from a crash (MTTR=%v)?", crashStatic.MTTR)
	}
	if crashXDM.MTTR <= 0 {
		t.Fatalf("xdm-failover never recovered from the crash (MTTR=%v)", crashXDM.MTTR)
	}
	if crashXDM.Switches != 1 {
		t.Fatalf("crash scenario switched %d times, want 1", crashXDM.Switches)
	}
	if crashXDM.LostPages == 0 {
		t.Fatal("failover lost no far copies; data-loss accounting broken")
	}

	// Availability dominance: the failover system keeps serving.
	if flapXDM.Avail <= flapStatic.Avail {
		t.Fatalf("flap availability xdm=%.2f <= static=%.2f", flapXDM.Avail, flapStatic.Avail)
	}
	if crashXDM.Avail <= crashStatic.Avail {
		t.Fatalf("crash availability xdm=%.2f <= static=%.2f", crashXDM.Avail, crashStatic.Avail)
	}
	if flapStatic.Switches != 0 || crashStatic.Switches != 0 {
		t.Fatal("static baseline recorded switches")
	}
}

func TestFaultRecoveryDeterministic(t *testing.T) {
	render := func() []byte {
		var buf bytes.Buffer
		for _, tb := range FaultRecovery(TestOptions()) {
			tb.Render(&buf)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed produced different fault tables:\n--- first\n%s\n--- second\n%s", a, b)
	}
}

func TestFaultScheduleDeterministicAcrossInjectors(t *testing.T) {
	// Applying the same mixed crash/flap schedule twice injects the same
	// events in the same order, overlapping windows and a recovery that a
	// crash overrides included.
	s := faults.Schedule{Events: []faults.Event{
		{At: 2 * sim.Second, Target: "rdma", Kind: faults.Flap, Duration: 5 * sim.Second},
		{At: 3 * sim.Second, Target: "ssd", Kind: faults.Flap, Duration: 10 * sim.Second},
		{At: 4 * sim.Second, Target: "rdma", Kind: faults.Crash},
		{At: 6 * sim.Second, Target: "dram", Kind: faults.Flap, Duration: 2 * sim.Second},
		{At: 8 * sim.Second, Target: "ssd", Kind: faults.Flap, Duration: sim.Second},
	}}
	runOnce := func() []faults.Event {
		eng := sim.NewEngine()
		env := testbed(eng)
		in := faults.NewInjector(eng)
		for _, name := range []string{"ssd", "rdma", "dram"} {
			in.Register(env.Machine.Device(name))
		}
		in.Apply(s)
		eng.Run()
		return in.Injected
	}
	a, b := runOnce(), runOnce()
	if len(a) == 0 {
		t.Fatal("no events injected")
	}
	if len(a) != len(b) {
		t.Fatalf("replays injected %d vs %d events", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
