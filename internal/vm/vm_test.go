package vm

import (
	"testing"

	"repro/internal/device"
	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/swap"
)

func newMachine(eng *sim.Engine) *Machine {
	m := NewMachine(eng, pcie.Gen4, 16, 20, 1<<20)
	m.AttachDevice(device.SpecTestbedSSD("ssd0"))
	m.AttachDevice(device.SpecConnectX5("rdma0"))
	m.AttachDevice(device.SpecRemoteDRAM("dram0"))
	return m
}

func TestCreateVMAllocatesResources(t *testing.T) {
	eng := sim.NewEngine()
	m := newMachine(eng)
	v := m.CreateVM("vm1", 4, 1<<18, []string{"ssd0", "rdma0"})
	if v == nil {
		t.Fatal("CreateVM failed despite free resources")
	}
	if v.State() != Booting {
		t.Fatalf("state=%v before boot completes", v.State())
	}
	eng.Run()
	if v.State() != Free {
		t.Fatalf("state=%v after boot, want Free", v.State())
	}
	if m.FreeCores() != 16 || m.FreePages() != (1<<20)-(1<<18) {
		t.Fatalf("resources not allocated: cores=%d pages=%d", m.FreeCores(), m.FreePages())
	}
	if eng.Now() < sim.Time(VMBootCost) {
		t.Fatalf("boot finished too fast: %v", eng.Now())
	}
}

func TestCreateVMRefusesOvercommit(t *testing.T) {
	eng := sim.NewEngine()
	m := newMachine(eng)
	if v := m.CreateVM("vm1", 100, 1, []string{"ssd0"}); v != nil {
		t.Fatal("overcommitted cores accepted")
	}
	if v := m.CreateVM("vm1", 1, 1<<30, []string{"ssd0"}); v != nil {
		t.Fatal("overcommitted memory accepted")
	}
}

func TestWarmSwitchUnder5Seconds(t *testing.T) {
	// Fig 18(b): every warm backend switch completes in < 5 s.
	eng := sim.NewEngine()
	m := newMachine(eng)
	v := m.CreateVM("vm1", 2, 1024, []string{"ssd0", "rdma0", "dram0"})
	eng.Run()
	kinds := []string{"ssd0", "rdma0", "dram0"}
	for _, from := range kinds {
		for _, to := range kinds {
			if from == to {
				continue
			}
			v.SwitchBackend(from, nil)
			eng.Run()
			start := eng.Now()
			switched := false
			v.SwitchBackend(to, func() { switched = true })
			eng.Run()
			took := eng.Now().Sub(start)
			if !switched {
				t.Fatalf("switch %s->%s never completed", from, to)
			}
			if took >= 5*sim.Second {
				t.Fatalf("switch %s->%s took %v, want < 5s", from, to, took)
			}
			if v.ActiveBackend() != to {
				t.Fatalf("active=%s after switch to %s", v.ActiveBackend(), to)
			}
		}
	}
}

func TestDRAMStartupIsSlowest(t *testing.T) {
	// Fig 18(b): the DRAM backend's startup dominates switching cost.
	toDRAM := SwitchCost(device.SSD, device.RemoteDRAM)
	toRDMA := SwitchCost(device.SSD, device.RDMA)
	toSSD := SwitchCost(device.RDMA, device.SSD)
	if !(toDRAM > toRDMA && toDRAM > toSSD) {
		t.Fatalf("DRAM switch %v not slowest (rdma %v ssd %v)", toDRAM, toRDMA, toSSD)
	}
}

func TestColdSwitchCostsMore(t *testing.T) {
	eng := sim.NewEngine()
	m := newMachine(eng)
	v := m.CreateVM("vm1", 2, 1024, []string{"ssd0"}) // rdma0 not warm
	eng.Run()
	start := eng.Now()
	v.SwitchBackend("rdma0", nil)
	eng.Run()
	took := eng.Now().Sub(start)
	if took < ColdModuleSwitch {
		t.Fatalf("cold switch took %v, want >= %v", took, ColdModuleSwitch)
	}
	if !v.HasWarmBackend("rdma0") {
		t.Fatal("cold switch should leave the backend warm")
	}
	// Second switch back and forth is warm.
	v.SwitchBackend("ssd0", nil)
	eng.Run()
	start = eng.Now()
	v.SwitchBackend("rdma0", nil)
	eng.Run()
	if eng.Now().Sub(start) >= 5*sim.Second {
		t.Fatal("re-switch to warmed backend not fast")
	}
}

func TestSwitchToActiveIsFree(t *testing.T) {
	eng := sim.NewEngine()
	m := newMachine(eng)
	v := m.CreateVM("vm1", 2, 1024, []string{"ssd0"})
	eng.Run()
	start := eng.Now()
	done := false
	v.SwitchBackend("ssd0", func() { done = true })
	eng.Run()
	if !done || eng.Now() != start {
		t.Fatal("no-op switch should complete instantly")
	}
	if v.Switches != 0 {
		t.Fatal("no-op switch counted")
	}
}

func TestVMRebootBeatsHostBoot(t *testing.T) {
	// Fig 18(a): VM reboot is ~2.6× faster than a host boot.
	ratio := float64(HostBootCost) / float64(VMRebootCost)
	if ratio < 2.3 || ratio > 3.0 {
		t.Fatalf("host/VM boot ratio %.2f, want ~2.6", ratio)
	}
}

// viaHost reports whether p routes ops through the host swap stage: on an
// idle engine, a one-page swap-in then takes at least HostHopOverhead longer
// than on a bypass path to the same backend.
func viaHost(eng *sim.Engine, p *swap.Path) bool {
	var lat, bypass sim.Duration
	p.SwapIn(swap.Extent{Pages: 1}, func(l sim.Duration) { lat = l })
	eng.Run()
	swap.NewPath(eng, p.Backend(), swap.NewChannel(eng, "probe", 1)).
		SwapIn(swap.Extent{Pages: 1}, func(l sim.Duration) { bypass = l })
	eng.Run()
	return lat >= bypass+swap.HostHopOverhead
}

func TestSharedPathIsHierarchical(t *testing.T) {
	eng := sim.NewEngine()
	m := newMachine(eng)
	p := m.SharedPath("ssd0")
	if !viaHost(eng, p) {
		t.Fatal("shared baseline path must be hierarchical")
	}
	if p.Channel() != m.SharedChannel() {
		t.Fatal("shared path must use the host's shared channel")
	}
}

func TestVMPathIsBypassAndIsolated(t *testing.T) {
	eng := sim.NewEngine()
	m := newMachine(eng)
	v1 := m.CreateVM("vm1", 2, 1024, []string{"rdma0"})
	v2 := m.CreateVM("vm2", 2, 1024, []string{"rdma0"})
	eng.Run()
	if viaHost(eng, v1.Path()) {
		t.Fatal("VM path must bypass the host")
	}
	if v1.Path().Channel() == v2.Path().Channel() {
		t.Fatal("VMs must have isolated channels")
	}
}

func TestAcceptChecksResources(t *testing.T) {
	eng := sim.NewEngine()
	m := newMachine(eng)
	v := m.CreateVM("vm1", 2, 1024, []string{"ssd0"})
	if v.Accept(1, 512) {
		t.Fatal("booting VM accepted a task")
	}
	eng.Run()
	if !v.Accept(2, 1024) {
		t.Fatal("fitting task rejected")
	}
	if v.Accept(3, 1024) || v.Accept(2, 2048) {
		t.Fatal("oversized task accepted")
	}
}

func TestBackendNamesAndAccessors(t *testing.T) {
	eng := sim.NewEngine()
	m := newMachine(eng)
	if len(m.BackendNames()) != 3 {
		t.Fatal("backend names incomplete")
	}
	if m.Device("ssd0") == nil || m.Backend("rdma0") == nil {
		t.Fatal("accessors nil")
	}
	if m.HostStage() == nil {
		t.Fatal("host stage nil")
	}
}

func TestVMStateStrings(t *testing.T) {
	states := map[VMState]string{Booting: "booting", Free: "free", Online: "online",
		Switching: "switching", VMState(9): "unknown"}
	for s, want := range states {
		if s.String() != want {
			t.Errorf("state %d = %q, want %q", s, s.String(), want)
		}
	}
}

func TestVMTaskLifecycleAndPaths(t *testing.T) {
	eng := sim.NewEngine()
	m := newMachine(eng)
	v := m.CreateVM("vm1", 2, 1024, []string{"ssd0", "rdma0"})
	eng.Run()
	if v.PathFor("rdma0") == nil || v.PathFor("nope") != nil {
		t.Fatal("PathFor wrong")
	}
	if v.channel == nil || v.channel != v.Path().Channel() {
		t.Fatal("channel accessor inconsistent")
	}
	v.BeginTask()
	if v.State() != Online || v.ActiveTasks != 1 {
		t.Fatal("BeginTask")
	}
	v.BeginTask()
	v.EndTask()
	if v.State() != Online {
		t.Fatal("VM idled with a task still active")
	}
	v.EndTask()
	if v.State() != Free || v.ActiveTasks != 0 {
		t.Fatal("EndTask")
	}
	v.EndTask() // no underflow
	if v.ActiveTasks != 0 {
		t.Fatal("EndTask underflow")
	}
}

func TestSharedPathUnknownBackendPanics(t *testing.T) {
	eng := sim.NewEngine()
	m := newMachine(eng)
	defer func() {
		if recover() == nil {
			t.Fatal("unknown backend did not panic")
		}
	}()
	m.SharedPath("nope")
}

func TestActivateIsFreeProvisioningChoice(t *testing.T) {
	eng := sim.NewEngine()
	m := newMachine(eng)
	v := m.CreateVM("vm", 2, 1024, []string{"rdma0", "ssd0"})
	eng.Run()
	if v.ActiveBackend() != "rdma0" {
		t.Fatalf("default active %q, want first warm backend", v.ActiveBackend())
	}
	before := eng.Now()
	if err := v.Activate("ssd0"); err != nil {
		t.Fatal(err)
	}
	if v.ActiveBackend() != "ssd0" {
		t.Fatalf("active %q after Activate", v.ActiveBackend())
	}
	eng.Run()
	if eng.Now() != before || v.Switches != 0 {
		t.Fatal("Activate cost time or counted as a switch")
	}
	// Only warm backends are eligible; cold ones need SwitchBackend.
	if err := v.Activate("dram0"); err == nil {
		t.Fatal("Activate accepted a cold backend")
	}
	if err := v.Activate("nope"); err == nil {
		t.Fatal("Activate accepted an unknown backend")
	}
}

func TestSwitchBackendUnknownReturnsError(t *testing.T) {
	eng := sim.NewEngine()
	m := newMachine(eng)
	v := m.CreateVM("vm", 2, 1024, []string{"rdma0"})
	eng.Run()
	fired := false
	if err := v.SwitchBackend("missing", func() { fired = true }); err == nil {
		t.Fatal("switch to unknown backend did not error")
	}
	eng.Run()
	if fired {
		t.Fatal("done fired for a failed switch")
	}
	if v.Switches != 0 {
		t.Fatalf("failed switch counted: %d", v.Switches)
	}
}
