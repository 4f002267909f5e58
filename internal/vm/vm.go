// Package vm models the virtualization layer xDM is built on: physical
// machines hosting KVM-style VMs, SR-IOV-like virtual far-memory backends
// pre-initialized per VM (warm start), the switchable swapper that retargets
// a VM's swap path in seconds, and the boot/reboot/switch cost model behind
// Fig 18.
package vm

import (
	"fmt"
	"sort"

	"repro/internal/device"
	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/swap"
)

// Registered invariant for host resource accounting: cores and pages handed
// to VMs stay within [0, capacity] across every create/destroy — a VM can
// neither overdraw the host nor return resources it never held.
var ckHostResources = invariant.Register("vm.host.resource-accounting")

// Lifecycle cost model (Fig 18). The paper reports xDM's VM reboot is ~2.6×
// faster than the host reboot traditional systems need, and that all warm
// backend switches complete in under 5 s.
const (
	// HostBootCost is a physical server boot (power cycle + OS + services).
	HostBootCost = 100 * sim.Second
	// HostBootSysShare is the kernel-level share of a host boot.
	HostBootSysShare = 0.6

	// VMBootCost is a cold VM creation (image + guest boot).
	VMBootCost = 52 * sim.Second
	// VMRebootCost is a warm VM reboot (guest kernel only).
	VMRebootCost = 38 * sim.Second
	// VMRebootSysShare is the kernel-level share of a VM reboot.
	VMRebootSysShare = 0.58

	// ColdModuleSwitch is a backend switch without a pre-assembled module:
	// the guest kernel module must be rebuilt and inserted.
	ColdModuleSwitch = 34 * sim.Second
)

// startupCost is the warm-start time of a pre-assembled backend module.
// DRAM is the slowest: the host must allocate and pin the donated memory.
func startupCost(k device.Kind) sim.Duration {
	switch k {
	case device.RemoteDRAM:
		return sim.Duration(4.2 * float64(sim.Second))
	case device.RDMA, device.DPU:
		return sim.Duration(1.8 * float64(sim.Second))
	case device.CXL, device.PooledCXL:
		return sim.Duration(1.0 * float64(sim.Second))
	default: // SSD / HDD swap files on prepared partitions
		return sim.Duration(1.2 * float64(sim.Second))
	}
}

// shutdownCost is the teardown time of an active backend module.
func shutdownCost(k device.Kind) sim.Duration {
	switch k {
	case device.RemoteDRAM:
		return sim.Duration(0.8 * float64(sim.Second))
	case device.RDMA, device.DPU:
		return sim.Duration(0.6 * float64(sim.Second))
	default:
		return sim.Duration(0.4 * float64(sim.Second))
	}
}

// SwitchCost reports the warm backend-switch time from kind a to kind b
// (shutdown of a + startup of b). Fig 18(b) requires every pair < 5 s.
func SwitchCost(a, b device.Kind) sim.Duration {
	return shutdownCost(a) + startupCost(b)
}

// Machine is a physical host: a PCIe fabric with attached far-memory
// devices, the host OS swap stage (for hierarchical baselines), one shared
// swap channel (for shared-swap baselines), and a fleet of VMs.
type Machine struct {
	Eng  *sim.Engine
	Host *device.Host

	CPUCores    int
	MemoryPages int

	usedCores int
	usedPages int

	devices   map[string]*device.Device
	backends  map[string]*swap.DeviceBackend
	hostStage *swap.HostSwapStage
	shared    *swap.Channel

	vms []*VM
}

// NewMachine builds a host on the given PCIe generation/lanes with the
// paper's testbed shape (two 10-core CPUs).
func NewMachine(eng *sim.Engine, gen pcie.Generation, lanes, cores, memoryPages int) *Machine {
	return &Machine{
		Eng:         eng,
		Host:        device.NewHost(eng, gen, lanes),
		CPUCores:    cores,
		MemoryPages: memoryPages,
		devices:     make(map[string]*device.Device),
		backends:    make(map[string]*swap.DeviceBackend),
		hostStage:   swap.NewHostSwapStage(eng, swap.DefaultHostWorkers),
		shared:      swap.NewChannel(eng, "host-shared", 4),
	}
}

// AttachDevice adds a far-memory device to the machine's fabric and
// registers it as a swappable backend.
func (m *Machine) AttachDevice(spec device.Spec) *device.Device {
	if _, dup := m.devices[spec.Name]; dup {
		panic(fmt.Sprintf("vm: duplicate device %q", spec.Name))
	}
	d := m.Host.Attach(spec)
	m.devices[spec.Name] = d
	m.backends[spec.Name] = swap.NewDeviceBackend(m.Eng, d)
	return d
}

// AdoptBackend registers an externally constructed device — one living on a
// shared fabric the machine does not own, such as a switch-attached pooled
// CXL port (internal/fabric) — as a swappable backend. The machine gains
// the backend without re-homing the device's links.
func (m *Machine) AdoptBackend(d *device.Device) *swap.DeviceBackend {
	name := d.Name()
	if _, dup := m.devices[name]; dup {
		panic(fmt.Sprintf("vm: duplicate device %q", name))
	}
	m.devices[name] = d
	b := swap.NewDeviceBackend(m.Eng, d)
	m.backends[name] = b
	return b
}

// Device returns an attached device by name.
func (m *Machine) Device(name string) *device.Device { return m.devices[name] }

// Backend returns a registered swap backend by name.
func (m *Machine) Backend(name string) *swap.DeviceBackend { return m.backends[name] }

// BackendNames lists registered backends in sorted order. The order is
// deterministic on purpose: callers feed it into backend selection, and map
// iteration order would leak run-to-run nondeterminism into results.
func (m *Machine) BackendNames() []string {
	names := make([]string, 0, len(m.backends))
	for n := range m.backends {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// HostStage exposes the shared host swap stage (hierarchical baselines).
func (m *Machine) HostStage() *swap.HostSwapStage { return m.hostStage }

// SharedChannel exposes the host's single shared swap channel.
func (m *Machine) SharedChannel() *swap.Channel { return m.shared }

// SharedPath builds a traditional path: shared channel + hierarchical host
// hop + the named backend. This is the baseline (Linux swap / Fastswap in a
// VM) configuration.
func (m *Machine) SharedPath(backend string) *swap.Path {
	b, ok := m.backends[backend]
	if !ok {
		panic(fmt.Sprintf("vm: unknown backend %q", backend))
	}
	return swap.NewHierarchicalPath(m.Eng, b, m.shared, m.hostStage)
}

// FreeCores and FreePages report unallocated host resources.
func (m *Machine) FreeCores() int { return m.CPUCores - m.usedCores }
func (m *Machine) FreePages() int { return m.MemoryPages - m.usedPages }

// VMs lists the machine's VMs.
func (m *Machine) VMs() []*VM { return m.vms }

// VMState tracks a VM's lifecycle.
type VMState int

// VM lifecycle states.
const (
	Booting VMState = iota
	Free            // booted, no task
	Online          // running at least one task
	Switching
)

func (s VMState) String() string {
	switch s {
	case Booting:
		return "booting"
	case Free:
		return "free"
	case Online:
		return "online"
	case Switching:
		return "switching"
	default:
		return "unknown"
	}
}

// VM is a guest with its own isolated swap channel and a set of
// pre-initialized (warm) virtual backends, one of which is active.
type VM struct {
	machine *Machine

	Cores int
	Pages int

	channel *swap.Channel
	// warm maps backend name → pre-built bypass path (SR-IOV virtual
	// function + pre-assembled swap module).
	warm   map[string]*swap.Path
	active string
	state  VMState

	// ActiveTasks counts tasks currently dispatched to this VM.
	ActiveTasks int

	// Switches and SwitchTime accumulate backend-switch overhead.
	Switches   uint64
	SwitchTime sim.Duration

	// Observability handle, resolved once at creation (nil when off).
	rec   *obs.Recorder
	track string
}

// CreateVM allocates host resources and boots a VM with the named warm
// backends (the first is active). The VM is Free once the boot completes.
// It returns nil if the host lacks resources.
func (m *Machine) CreateVM(name string, cores, pages int, warmBackends []string) *VM {
	if cores > m.FreeCores() || pages > m.FreePages() {
		return nil
	}
	if len(warmBackends) == 0 {
		panic("vm: VM needs at least one backend")
	}
	m.usedCores += cores
	m.usedPages += pages
	if invariant.On {
		ckHostResources.Assert(m.usedCores <= m.CPUCores && m.usedPages <= m.MemoryPages,
			"allocated %d/%d cores, %d/%d pages", m.usedCores, m.CPUCores, m.usedPages, m.MemoryPages)
	}
	v := &VM{
		machine: m,
		Cores:   cores,
		Pages:   pages,
		channel: swap.NewChannel(m.Eng, name+"-ch", 4),
		warm:    make(map[string]*swap.Path),
		state:   Booting,
	}
	if obs.On {
		if r := obs.Rec(m.Eng); r != nil {
			v.rec = r
			v.track = "vm/" + name
			r.OnSeal(func() {
				r.Counter(v.track + "/switches").Add(float64(v.Switches))
				r.Gauge(v.track + "/switch-time-ns").Set(float64(v.SwitchTime))
			})
		}
	}
	boot := VMBootCost
	for _, b := range warmBackends {
		be, ok := m.backends[b]
		if !ok {
			panic(fmt.Sprintf("vm: unknown backend %q", b))
		}
		// Warm initialization happens during boot (overlapped), costing
		// only the longest backend startup beyond the base boot time.
		if s := startupCost(be.Kind()); boot < VMBootCost+s/2 {
			boot = VMBootCost + s/2
		}
		v.warm[b] = swap.NewPath(m.Eng, be, v.channel)
	}
	v.active = warmBackends[0]
	m.vms = append(m.vms, v)
	bootStart := m.Eng.Now()
	m.Eng.After(boot, func() {
		v.state = Free
		if v.rec != nil {
			v.rec.Span(v.track, "boot", bootStart, "")
		}
	})
	return v
}

// State reports the VM's lifecycle state.
func (v *VM) State() VMState { return v.state }

// ActiveBackend reports the active backend's name.
func (v *VM) ActiveBackend() string { return v.active }

// HasWarmBackend reports whether the named backend is pre-initialized.
func (v *VM) HasWarmBackend(name string) bool {
	_, ok := v.warm[name]
	return ok
}

// Activate points the VM's swapper at a warm backend without a runtime
// switch — a provisioning-time choice, made before the guest runs, so it is
// free. Retargeting a running VM must go through SwitchBackend and pay the
// warm-switch cost.
func (v *VM) Activate(name string) error {
	if _, ok := v.warm[name]; !ok {
		return fmt.Errorf("vm: backend %q is not warm", name)
	}
	v.active = name
	return nil
}

// Path returns the VM's bypass swap path for its active backend.
func (v *VM) Path() *swap.Path { return v.warm[v.active] }

// PathFor returns the VM's path for any warm backend (nil if absent).
func (v *VM) PathFor(name string) *swap.Path { return v.warm[name] }

// SwitchBackend retargets the VM's swapper to the named backend. Warm
// backends switch in SwitchCost (< 5 s); a cold backend pays the module
// assembly cost and becomes warm. done fires when the switch completes.
// Naming a backend the machine does not have returns an error (the request
// may come from spec- or policy-driven input, e.g. a failover controller
// racing a topology change) and done never fires.
func (v *VM) SwitchBackend(name string, done func()) error {
	if name == v.active {
		if done != nil {
			v.machine.Eng.Immediately(done)
		}
		return nil
	}
	be, ok := v.machine.backends[name]
	if !ok {
		return fmt.Errorf("vm: unknown backend %q", name)
	}
	oldKind := v.machine.backends[v.active].Kind()
	var cost sim.Duration
	if _, warm := v.warm[name]; warm {
		cost = SwitchCost(oldKind, be.Kind())
	} else {
		cost = ColdModuleSwitch + SwitchCost(oldKind, be.Kind())
		v.warm[name] = swap.NewPath(v.machine.Eng, be, v.channel)
	}
	prev := v.state
	v.state = Switching
	v.Switches++
	v.SwitchTime += cost
	switchStart := v.machine.Eng.Now()
	v.machine.Eng.After(cost, func() {
		v.active = name
		if v.state == Switching {
			v.state = prev
		}
		if v.rec != nil {
			v.rec.Span(v.track, "switch", switchStart, name)
		}
		if done != nil {
			done()
		}
	})
	return nil
}

// Accept reports whether the VM can host a task needing the given
// resources.
func (v *VM) Accept(cores, pages int) bool {
	return v.state != Booting && cores <= v.Cores && pages <= v.Pages
}

// BeginTask records a task dispatched to this VM, moving it Online.
func (v *VM) BeginTask() {
	v.ActiveTasks++
	if v.state == Free {
		v.state = Online
	}
}

// EndTask records a task completion; the VM returns to Free when idle.
func (v *VM) EndTask() {
	if v.ActiveTasks > 0 {
		v.ActiveTasks--
	}
	if v.ActiveTasks == 0 && v.state == Online {
		v.state = Free
	}
}
