package faults

import (
	"reflect"
	"testing"

	"repro/internal/sim"
)

// fakeTarget records the fault transitions applied to it.
type fakeTarget struct {
	name   string
	events []string
}

func (f *fakeTarget) Name() string { return f.name }
func (f *fakeTarget) Fail()        { f.events = append(f.events, "fail") }
func (f *fakeTarget) Stall()       { f.events = append(f.events, "stall") }
func (f *fakeTarget) Recover()     { f.events = append(f.events, "recover") }

// timedTarget records when it was failed.
type timedTarget struct {
	fakeTarget
	eng      *sim.Engine
	failedAt sim.Time
}

func (f *timedTarget) Fail() { f.failedAt = f.eng.Now() }

func TestScheduleSortStable(t *testing.T) {
	s := Schedule{Events: []Event{
		{At: 2 * sim.Second, Target: "b"},
		{At: 1 * sim.Second, Target: "z"},
		{At: 2 * sim.Second, Target: "a"},
	}}
	s.Sort()
	got := []string{s.Events[0].Target, s.Events[1].Target, s.Events[2].Target}
	want := []string{"z", "a", "b"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sort order %v, want %v", got, want)
	}
}

func TestInjectorFlapRecovers(t *testing.T) {
	eng := sim.NewEngine()
	in := NewInjector(eng)
	ft := &fakeTarget{name: "dev"}
	in.Register(ft)
	n := in.Apply(Schedule{Events: []Event{
		{At: sim.Second, Target: "dev", Kind: Flap, Duration: 2 * sim.Second},
		{At: sim.Second, Target: "ghost", Kind: Crash}, // unregistered: ignored
	}})
	if n != 1 {
		t.Fatalf("armed %d events, want 1 (ghost target skipped)", n)
	}
	eng.Run()
	if !reflect.DeepEqual(ft.events, []string{"stall", "recover"}) {
		t.Fatalf("flap transitions %v, want [stall recover]", ft.events)
	}
	if len(in.Injected) != 1 {
		t.Fatalf("Injected log has %d entries, want 1", len(in.Injected))
	}
}

func TestInjectorCrashWinsOverRecovery(t *testing.T) {
	eng := sim.NewEngine()
	in := NewInjector(eng)
	ft := &fakeTarget{name: "dev"}
	in.Register(ft)
	// Flap window ends at t=3s, but the device crashes at t=2s: the
	// recovery must be skipped and the later flap must not apply.
	in.Apply(Schedule{Events: []Event{
		{At: sim.Second, Target: "dev", Kind: Flap, Duration: 2 * sim.Second},
		{At: 2 * sim.Second, Target: "dev", Kind: Crash},
		{At: 4 * sim.Second, Target: "dev", Kind: Flap, Duration: sim.Second},
	}})
	eng.Run()
	if !reflect.DeepEqual(ft.events, []string{"stall", "fail"}) {
		t.Fatalf("transitions %v, want [stall fail] (dead targets stay dead)", ft.events)
	}
}

func TestInjectorOffsetsRelativeToApply(t *testing.T) {
	eng := sim.NewEngine()
	in := NewInjector(eng)
	ft := &timedTarget{fakeTarget: fakeTarget{name: "dev"}, eng: eng}
	in.Register(ft)
	// Warm up the clock, then apply: the event must land at now+offset.
	eng.After(10*sim.Second, func() {
		in.Apply(Schedule{Events: []Event{{At: 3 * sim.Second, Target: "dev", Kind: Crash}}})
	})
	eng.Run()
	if want := sim.Time(0).Add(13 * sim.Second); ft.failedAt != want {
		t.Fatalf("fault fired at %v, want %v", ft.failedAt, want)
	}
}

func TestMonitorTripsAndLatches(t *testing.T) {
	m := NewMonitor()
	trips := 0
	m.OnUnhealthy = func() { trips++ }
	for i := 0; i < 4; i++ {
		m.Record(true)
	}
	if m.unhealthy {
		t.Fatal("healthy monitor reported unhealthy")
	}
	for i := 0; i < 32; i++ {
		m.Record(false)
	}
	if !m.unhealthy {
		t.Fatalf("monitor did not trip (window %d ok, %d failed)", m.ok, m.fail)
	}
	if trips != 1 {
		t.Fatalf("OnUnhealthy fired %d times, want exactly 1 (latched)", trips)
	}
	// Further failures must not re-fire the latched callback.
	m.Record(false)
	if trips != 1 {
		t.Fatalf("latched callback re-fired (%d)", trips)
	}
}

func TestMonitorCountsWindow(t *testing.T) {
	m := NewMonitor()
	for i := 0; i < 10; i++ {
		m.Record(true)
	}
	m.Record(false)
	m.Record(false)
	if m.ok != 10 || m.fail != 2 || m.consecFail != 2 {
		t.Fatalf("window %d/%d consec %d, want 10/2/2", m.ok, m.fail, m.consecFail)
	}
	if m.unhealthy {
		t.Fatal("latched early")
	}
}

func TestMonitorNeedsMinSamples(t *testing.T) {
	m := NewMonitor()
	// Fewer than monitorMinSamples failures: too little evidence to demote.
	for i := 0; i < 4; i++ {
		m.Record(false)
	}
	if m.unhealthy {
		t.Fatal("monitor tripped below monitorMinSamples")
	}
}

func TestMonitorRecoversOnSuccesses(t *testing.T) {
	m := NewMonitor()
	// Stay below both trip conditions: a short error burst, not an outage.
	for i := 0; i < 3; i++ {
		m.Record(false)
	}
	// A healthy stretch dilutes the window and breaks the consecutive-failure
	// streak before the monitor accumulates enough evidence.
	for i := 0; i < 64; i++ {
		m.Record(true)
	}
	if m.unhealthy {
		t.Fatal("monitor tripped despite recovery")
	}
	if rate := float64(m.fail) / float64(m.ok+m.fail); rate > 0.2 {
		t.Fatalf("error rate %.2f did not decay", rate)
	}
}
