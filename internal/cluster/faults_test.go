package cluster

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/sim"
)

// dispatchApp is a small app that any healthy backend can host.
func dispatchApp() App {
	return App{Spec: friendlySpec(), SLO: 1.5, Seed: 1, Cores: 1}
}

func TestDispatchAvoidsDeadBackend(t *testing.T) {
	eng := sim.NewEngine()
	env := clusterEnv(eng)
	d := NewDispatcher(env)
	app := dispatchApp()
	f := baseline.Profile(app.Spec, app.Seed)

	// Learn the healthy first choice, then kill that device.
	p := d.Dispatch(app, f, nil)
	if p.Via == ViaNone {
		t.Fatal("baseline dispatch rejected the app")
	}
	first := p.Backend
	d.Release(p)
	env.Machine.Device(first).Fail()

	p2 := d.Dispatch(app, f, nil)
	if p2.Via == ViaNone {
		t.Fatal("dispatch rejected app despite healthy alternatives")
	}
	if p2.Backend == first {
		t.Fatalf("dispatch placed app on dead backend %q", first)
	}
}

func TestDispatchAvoidsStalledBackendUntilRecovery(t *testing.T) {
	eng := sim.NewEngine()
	env := clusterEnv(eng)
	d := NewDispatcher(env)
	app := dispatchApp()
	f := baseline.Profile(app.Spec, app.Seed)

	p := d.Dispatch(app, f, nil)
	first := p.Backend
	d.Release(p)
	dev := env.Machine.Device(first)
	dev.Stall()
	p2 := d.Dispatch(app, f, nil)
	if p2.Backend == first {
		t.Fatalf("dispatch placed app on stalled backend %q", first)
	}
	// Once the outage ends, the backend is eligible again.
	dev.Recover()
	d.Release(p2)
	p3 := d.Dispatch(app, f, nil)
	if p3.Backend != first {
		t.Fatalf("recovered backend %q not re-selected (got %q)", first, p3.Backend)
	}
}
