package cluster

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/device"
	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/vm"
)

// tinyEnv is a machine so small that VM creation fails once a couple of VMs
// exist, forcing arrival rejections.
func tinyEnv(eng *sim.Engine) baseline.Env {
	m := vm.NewMachine(eng, pcie.Gen3, 16, 4, 6000)
	m.AttachDevice(device.SpecTestbedSSD("ssd"))
	return baseline.Env{Machine: m, FileBackend: "ssd"}
}

// TestArrivalSimRejectedAppsNotInDelay is the regression test for the
// placement-delay definition: rejected apps (no VM-ready instant exists)
// must contribute no sample, and every placed app contributes exactly one —
// DelaySamples must equal the number of placements, never the number of
// arrivals.
func TestArrivalSimRejectedAppsNotInDelay(t *testing.T) {
	eng := sim.NewEngine()
	env := tinyEnv(eng)
	res := RunArrivalSim(env, ArrivalSimConfig{
		Templates:        []App{{Spec: friendlySpec(), SLO: 1.6, Cores: 1}},
		Arrivals:         16,
		MeanInterarrival: 1 * sim.Millisecond,
		Seed:             11,
	})
	if res.Rejected == 0 {
		t.Fatal("scenario did not produce rejections; shrink the machine")
	}
	placed := 0
	for _, n := range res.Placed {
		placed += n
	}
	if placed+res.Rejected != 16 {
		t.Fatalf("placement accounting: %d placed + %d rejected != 16", placed, res.Rejected)
	}
	if res.DelaySamples != placed {
		t.Fatalf("delay samples %d != placed %d (rejected apps leaked into the mean, or placed apps were skipped)",
			res.DelaySamples, placed)
	}
	if res.MeanPlacementDelay < 0 {
		t.Fatalf("negative mean placement delay %v", res.MeanPlacementDelay)
	}
}

// TestDispatcherMaxTasksPerVM pins the serving-mode concurrency bound: with
// MaxTasksPerVM set, a VM at the bound stops accepting placements, and with
// no other capacity the dispatch is refused instead of oversubscribing.
func TestDispatcherMaxTasksPerVM(t *testing.T) {
	eng := sim.NewEngine()
	m := vm.NewMachine(eng, pcie.Gen3, 16, 4, 6000)
	m.AttachDevice(device.SpecTestbedSSD("ssd"))
	env := baseline.Env{Machine: m, FileBackend: "ssd"}
	m.CreateVM("only", 4, 4096, []string{"ssd"})
	eng.Run()

	d := NewDispatcher(env)
	d.MaxTasksPerVM = 2
	app := App{Spec: friendlySpec(), SLO: 1.6, Cores: 1}
	f := baseline.Profile(app.Spec, app.Seed)
	p1 := d.Dispatch(app, f, nil)
	p2 := d.Dispatch(app, f, nil)
	if p1.Via == ViaNone || p2.Via == ViaNone {
		t.Fatalf("first two placements refused: %v, %v", p1.Via, p2.Via)
	}
	if p1.VM != p2.VM {
		t.Fatal("expected both tasks on the single VM")
	}
	// Third task: the sole VM is at its bound and the host has no room for
	// another VM → refused.
	p3 := d.Dispatch(app, f, nil)
	if p3.Via != ViaNone {
		t.Fatalf("third placement via %v, want refusal at the concurrency bound", p3.Via)
	}
	// Releasing one task re-opens the slot.
	d.Release(p1)
	p4 := d.Dispatch(app, f, nil)
	if p4.Via == ViaNone {
		t.Fatal("placement refused after a slot freed")
	}
}
