package fabric

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/swap"
	"repro/internal/units"
	"repro/internal/vm"
)

// crossbarBandwidth is one switch hop's crossbar capacity: a shared segment
// every host's pooled traffic crosses, wide enough that a single host never
// bottlenecks on it but narrow enough that all ports flooding at once
// contend — the CXL-DMSim switched-path shape.
const crossbarBandwidth = 64 // GB/s

// Switch is the CXL switch data path: per-host uplinks, shared crossbar
// hop links, and the pooled device's media link, all on one pcie fluid-flow
// fabric so bandwidth arbitration between hosts falls out of the existing
// max-min machinery. Per-hop latency rides in the pooled device spec
// (device.SpecPooledCXL). The switch is a faults.Target: crashing it takes
// down every attached pooled port at once — the blast radius that makes
// fabric failover interesting.
type Switch struct {
	eng  *sim.Engine
	name string
	fb   *pcie.Fabric
	hops []*pcie.Link
	hopN int

	ports []*device.Device

	down bool

	// Observability handle, resolved once at construction (nil when off).
	rec *obs.Recorder
}

// NewSwitch builds a switch with the given hop count on a fresh fabric.
// Host ports attach via AttachPort.
func NewSwitch(eng *sim.Engine, name string, hops int) *Switch {
	s := &Switch{eng: eng, name: name, fb: pcie.NewFabric(eng), hopN: hops}
	if obs.On {
		s.rec = obs.Rec(eng)
	}
	for i := 0; i < hops; i++ {
		s.hops = append(s.hops, s.fb.NewLink(fmt.Sprintf("%s/hop%d", name, i), units.GBps(crossbarBandwidth)))
	}
	return s
}

// Name reports the switch's name (the faults.Target identity).
func (s *Switch) Name() string { return s.name }

// AttachPort gives machine m a pooled-memory port through this switch: a
// PooledCXL device whose every transfer crosses the shared hop links, and a
// backend registration on m so tasks can swap against it. The port device
// lives on the switch's fabric, not the machine's — cross-host contention
// for the crossbar is the point.
func (s *Switch) AttachPort(m *vm.Machine, name string) (*device.Device, *swap.DeviceBackend) {
	spec := device.SpecPooledCXL(name, s.hopN)
	d := device.New(s.eng, s.fb, spec, s.hops...)
	be := m.AdoptBackend(d)
	s.ports = append(s.ports, d)
	return d, be
}

// --- fault state (the faults.Target interface) ---

// Fail crashes the switch permanently: every attached pooled port dies with
// it, and data resident in pool slabs is lost.
func (s *Switch) Fail() {
	s.down = true
	for _, d := range s.ports {
		d.Fail()
	}
	if s.rec != nil {
		s.rec.Instant("fabric/"+s.name, "fail", "")
	}
}

// Stall starts a transient switch outage (link flap / hot reset): pooled
// ops are silently dropped until Recover.
func (s *Switch) Stall() {
	if s.down {
		return
	}
	for _, d := range s.ports {
		d.Stall()
	}
	if s.rec != nil {
		s.rec.Instant("fabric/"+s.name, "stall", "")
	}
}

// Recover ends a Stall window. A Failed switch stays down.
func (s *Switch) Recover() {
	if s.down {
		return
	}
	for _, d := range s.ports {
		d.Recover()
	}
	if s.rec != nil {
		s.rec.Instant("fabric/"+s.name, "recover", "")
	}
}
