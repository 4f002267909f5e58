// Package faults injects deterministic failures into the simulated
// far-memory substrate: permanent device death, transient unavailability
// windows (RDMA link flaps, NVMe controller resets) and CXL switch crashes.
// Fault schedules are literal event lists driven entirely by the virtual
// clock, so every failure scenario replays byte-identically.
//
// The package deliberately depends only on internal/sim (plus the
// observability layer, which itself sits directly on sim): anything that can
// fail implements the small Target interface (internal/device.Device and
// internal/fabric.Switch do),
// and anything that watches backend health feeds a Monitor (internal/swap
// paths do). That keeps the dependency graph acyclic — device, swap, and
// datacenter all sit above faults, never below it.
package faults

import (
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Kind classifies a fault event.
type Kind int

const (
	// Crash is permanent device death: every subsequent op fails fast
	// (controller abort / NIC completion-with-error). The device does not
	// come back; data held on it is lost.
	Crash Kind = iota
	// Flap is a transient unavailability window (RDMA link flap, NVMe
	// controller reset): ops submitted during the window are silently
	// dropped — only the initiator's timeout notices. The device recovers
	// after Duration with data intact.
	Flap
)

// String names the kind for tables and logs.
func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Flap:
		return "flap"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one scheduled fault. At is an offset from the moment the
// schedule is applied (Injector.Apply), not an absolute time, so the same
// schedule can be replayed against any warm-up prefix.
type Event struct {
	At       sim.Duration // offset from Apply time
	Target   string       // device name (Injector.Register)
	Kind     Kind
	Duration sim.Duration // Flap window; ignored for Crash
}

// Schedule is an ordered list of fault events.
type Schedule struct {
	Events []Event
}

// Sort orders events by time, then target, for deterministic application.
func (s *Schedule) Sort() {
	sort.SliceStable(s.Events, func(i, j int) bool {
		if s.Events[i].At != s.Events[j].At {
			return s.Events[i].At < s.Events[j].At
		}
		return s.Events[i].Target < s.Events[j].Target
	})
}

// Target is anything the injector can break. internal/device.Device
// implements it; other layers can too.
type Target interface {
	Name() string
	// Fail kills the target permanently: ops fail fast from now on.
	Fail()
	// Stall makes the target silently drop ops (transient outage).
	Stall()
	// Recover restores full health (ends a Stall window).
	Recover()
}

// Injector arms fault events against registered targets on a virtual
// clock. Recovery events scheduled for a target that has since crashed are
// skipped — permanent death wins.
type Injector struct {
	eng     *sim.Engine
	targets map[string]Target
	crashed map[string]bool
	// Injected logs every event actually applied, in application order.
	Injected []Event

	// Observability handle, resolved once at construction (nil when off).
	rec *obs.Recorder
}

// NewInjector creates an injector bound to eng.
func NewInjector(eng *sim.Engine) *Injector {
	in := &Injector{
		eng:     eng,
		targets: make(map[string]Target),
		crashed: make(map[string]bool),
	}
	if obs.On {
		in.rec = obs.Rec(eng)
	}
	return in
}

// Register makes t eligible as a fault target under t.Name().
func (in *Injector) Register(t Target) { in.targets[t.Name()] = t }

// Apply schedules every event in s relative to the current virtual time.
// Events naming unregistered targets are ignored (returned count excludes
// them). Apply may be called multiple times; schedules compose.
func (in *Injector) Apply(s Schedule) int {
	s.Sort()
	armed := 0
	for _, ev := range s.Events {
		t, ok := in.targets[ev.Target]
		if !ok {
			continue
		}
		armed++
		ev := ev
		in.eng.After(ev.At, func() { in.fire(t, ev) })
	}
	return armed
}

func (in *Injector) fire(t Target, ev Event) {
	if in.crashed[ev.Target] {
		return // dead targets stay dead
	}
	switch ev.Kind {
	case Crash:
		in.crashed[ev.Target] = true
		t.Fail()
	case Flap:
		t.Stall()
		in.eng.After(ev.Duration, func() { in.recover(t, ev.Target) })
	}
	in.Injected = append(in.Injected, ev)
	if in.rec != nil {
		detail := ev.Target
		if ev.Kind != Crash {
			detail = fmt.Sprintf("%s dur=%v", ev.Target, ev.Duration)
		}
		in.rec.Instant("faults", ev.Kind.String(), detail)
	}
}

func (in *Injector) recover(t Target, name string) {
	if in.crashed[name] {
		return
	}
	if in.rec != nil {
		in.rec.Instant("faults", "recover", name)
	}
	t.Recover()
}
