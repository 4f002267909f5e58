package cluster

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/baseline"
	"repro/internal/clustertrace"
	"repro/internal/device"
	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/swap"
	"repro/internal/vm"
	"repro/internal/workload"
)

func clusterEnv(eng *sim.Engine) baseline.Env {
	// Multi-backend machine: two RDMA NICs and two SSDs, as the paper's
	// scale-out testbed.
	m := vm.NewMachine(eng, pcie.Gen4, 16, 40, 1<<22)
	m.AttachDevice(device.SpecTestbedSSD("ssd0"))
	m.AttachDevice(device.SpecTestbedSSD("ssd1"))
	m.AttachDevice(device.SpecConnectX5("rdma0"))
	m.AttachDevice(device.SpecConnectX5("rdma1"))
	m.AttachDevice(device.SpecRemoteDRAM("dram0"))
	m.AttachDevice(device.SpecRemoteDRAM("dram1"))
	return baseline.Env{Machine: m, FileBackend: "ssd0"}
}

func friendlySpec() workload.Spec {
	// Swap-friendly: hot-concentrated accesses plus compute between them,
	// so the console can offload most of the footprint within the SLO.
	return workload.Spec{
		Name: "friendly", Class: workload.AI, MaxMemGiB: 2,
		FootprintPages: 2048, AnonFraction: 1.0, Coverage: 1.0,
		SegmentLen: 1024, SeqShare: 0.1, RunLen: 16,
		HotShare: 0.1, HotProb: 0.9, WriteFraction: 0.2,
		ComputePerAccess: 500 * sim.Nanosecond, MainAccesses: 8192, SwapFeature: 'F',
	}
}

func sensitiveSpec() workload.Spec {
	s := friendlySpec()
	s.Name = "sensitive"
	s.SeqShare = 0.15
	s.RunLen = 4
	s.SegmentLen = 32
	s.HotShare = 0.6
	s.HotProb = 0.3
	return s
}

func TestMBEKnownValues(t *testing.T) {
	// Two servers at 0.9, two at 0.1, alpha=beta=0.5:
	// C%=0.5, c̄=0.9 → 0.5*(0.9-0.5)=0.2; A%=0.5, ā=0.1 → -0.5*(0.1-0.5)=0.2.
	utils := []float64{0.9, 0.9, 0.1, 0.1}
	got := MBE(utils, 0.5, 0.5)
	if math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("MBE=%v, want 0.4", got)
	}
}

func TestMBEEmptyAndUniform(t *testing.T) {
	if MBE(nil, 0.3, 0.7) != 0 {
		t.Fatal("empty cluster MBE not 0")
	}
	// All servers in the middle band: nothing to balance.
	if MBE([]float64{0.5, 0.5, 0.5}, 0.3, 0.7) != 0 {
		t.Fatal("middle-band MBE not 0")
	}
}

func TestMBESwapsInvertedThresholds(t *testing.T) {
	utils := []float64{0.9, 0.1}
	if MBE(utils, 0.7, 0.3) != MBE(utils, 0.3, 0.7) {
		t.Fatal("inverted thresholds not normalized")
	}
}

func TestBalanceMovesPressure(t *testing.T) {
	utils := []float64{0.95, 0.05}
	balanced, moved := Balance(utils, 0.5, 0.5)
	if moved <= 0 {
		t.Fatal("no pressure moved")
	}
	if balanced[0] >= utils[0] || balanced[1] <= utils[1] {
		t.Fatalf("balance went the wrong way: %v", balanced)
	}
	// Conservation: total utilization unchanged.
	if math.Abs((balanced[0]+balanced[1])-(utils[0]+utils[1])) > 1e-12 {
		t.Fatal("balance did not conserve memory")
	}
}

func TestBalanceNoExtremes(t *testing.T) {
	balanced, moved := Balance([]float64{0.5, 0.6}, 0.3, 0.7)
	if moved != 0 {
		t.Fatal("nothing should move in the middle band")
	}
	if balanced[0] != 0.5 || balanced[1] != 0.6 {
		t.Fatal("values changed without pressure")
	}
}

// Property: balancing conserves total utilization and never overfills a
// cold server past alpha or leaves a hot server below beta.
func TestBalanceConservationProperty(t *testing.T) {
	f := func(seeds []uint8, aSeed, bSeed uint8) bool {
		if len(seeds) == 0 {
			return true
		}
		utils := make([]float64, len(seeds))
		total := 0.0
		for i, s := range seeds {
			utils[i] = float64(s) / 255
			total += utils[i]
		}
		alpha := float64(aSeed) / 255
		beta := float64(bSeed) / 255
		balanced, _ := Balance(utils, alpha, beta)
		if alpha > beta {
			alpha, beta = beta, alpha
		}
		sum := 0.0
		for i, b := range balanced {
			sum += b
			if utils[i] < alpha && b > alpha+1e-9 {
				return false
			}
			if utils[i] > beta && b < beta-1e-9 {
				return false
			}
		}
		return math.Abs(sum-total) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(81))}); err != nil {
		t.Fatal(err)
	}
}

func TestMBEImprovementMatchesPaperPoints(t *testing.T) {
	// Fig 19's quoted values: up to 13.8% at α=β=31% on the low-pressure
	// 2017 trace, and up to 19.7% at α=β=80% on the high-pressure 2018
	// trace; effectiveness is better on the high-pressure cluster at its
	// operating threshold.
	lo := clustertrace.Snapshot(clustertrace.Alibaba2017(), 4000, 1)
	hi := clustertrace.Snapshot(clustertrace.Alibaba2018(), 4000, 1)
	lo31 := MBEImprovement(lo, 0.31, 0.31)
	hi80 := MBEImprovement(hi, 0.80, 0.80)
	if lo31 < 0.08 || lo31 > 0.20 {
		t.Fatalf("2017 improvement at 0.31 = %.3f, paper ~0.138", lo31)
	}
	if hi80 < 0.13 || hi80 > 0.28 {
		t.Fatalf("2018 improvement at 0.80 = %.3f, paper ~0.197", hi80)
	}
	if hi80 <= lo31 {
		t.Fatalf("high-pressure improvement %.3f not above low-pressure %.3f", hi80, lo31)
	}
	// Each trace beats the other at its own operating threshold.
	if MBEImprovement(hi, 0.80, 0.80) <= MBEImprovement(lo, 0.80, 0.80) {
		t.Fatal("2018 should dominate at the 0.80 threshold")
	}
	if MBEImprovement(lo, 0.31, 0.31) <= MBEImprovement(hi, 0.31, 0.31) {
		t.Fatal("2017 should dominate at the 0.31 threshold")
	}
}

func TestDispatcherWarmStartPreference(t *testing.T) {
	eng := sim.NewEngine()
	env := clusterEnv(eng)
	// Pre-boot one VM per backend so a warm match always exists.
	for _, name := range env.Machine.BackendNames() {
		env.Machine.CreateVM("vm-"+name, 4, 4096, []string{name})
	}
	eng.Run()

	d := NewDispatcher(env)
	app := App{Spec: friendlySpec(), SLO: 1.4, Seed: 1, Cores: 1}
	f := baseline.Profile(app.Spec, app.Seed)
	var got Placement
	p := d.Dispatch(app, f, func(pl Placement) { got = pl })
	eng.Run()
	if p.Via != ViaFreeVM {
		t.Fatalf("placement via %v, want free-vm (warm start)", p.Via)
	}
	if got.VM == nil || got.VM.ActiveBackend() != p.Backend {
		t.Fatalf("ready callback inconsistent: %+v", got)
	}
	if p.VM.State() != vm.Online {
		t.Fatalf("VM state %v after dispatch", p.VM.State())
	}
	d.Release(p)
	if p.VM.State() != vm.Free {
		t.Fatal("release did not idle the VM")
	}
}

func TestDispatcherSwitchesWhenNoMatchingVM(t *testing.T) {
	eng := sim.NewEngine()
	env := clusterEnv(eng)
	env.Machine.CreateVM("vm1", 4, 4096, []string{"ssd0"})
	eng.Run()
	d := NewDispatcher(env)
	// friendlySpec is anon-heavy sequential: console picks rdma0, but only
	// an ssd0 VM exists → switch.
	p := d.Dispatch(App{Spec: friendlySpec(), SLO: 1.4, Seed: 1, Cores: 1}, baseline.Profile(friendlySpec(), 1), nil)
	if p.Backend != "rdma0" {
		t.Skipf("console picked %s; switch branch untestable", p.Backend)
	}
	if p.Via != ViaSwitch {
		t.Fatalf("placement via %v, want switched-vm", p.Via)
	}
	eng.Run()
	if p.VM.ActiveBackend() != "rdma0" {
		t.Fatal("switch did not complete")
	}
}

func TestDispatcherCreatesVMWhenFleetBusy(t *testing.T) {
	eng := sim.NewEngine()
	env := clusterEnv(eng)
	d := NewDispatcher(env)
	p := d.Dispatch(App{Spec: friendlySpec(), SLO: 1.4, Seed: 1, Cores: 1}, baseline.Profile(friendlySpec(), 1), nil)
	if p.Via != ViaCreate {
		t.Fatalf("empty fleet placement via %v, want created-vm", p.Via)
	}
	eng.Run()
	if len(env.Machine.VMs()) != 1 {
		t.Fatal("no VM created")
	}
}

func TestDispatcherRejectsWhenHostFull(t *testing.T) {
	eng := sim.NewEngine()
	m := vm.NewMachine(eng, pcie.Gen4, 16, 1, 64) // tiny host
	m.AttachDevice(device.SpecTestbedSSD("ssd0"))
	env := baseline.Env{Machine: m, FileBackend: "ssd0"}
	d := NewDispatcher(env)
	p := d.Dispatch(App{Spec: friendlySpec(), SLO: 1.4, Seed: 1, Cores: 4}, baseline.Profile(friendlySpec(), 1), nil)
	if p.Via != ViaNone || d.Rejected != 1 {
		t.Fatalf("overcommitted dispatch: via=%v rejected=%d", p.Via, d.Rejected)
	}
}

func TestRunThroughputFarMemoryBeatsFullMemory(t *testing.T) {
	// The Fig 16 mechanism: with far memory + SLO slack, more jobs fit in
	// local memory simultaneously → higher task throughput.
	mkJobs := func() []App {
		jobs := make([]App, 8)
		for i := range jobs {
			jobs[i] = App{Spec: friendlySpec(), SLO: 1.8, Seed: int64(i), Cores: 1}
		}
		return jobs
	}
	const serverPages = 4096 // fits 2 full footprints, or ~6 offloaded
	run := func(policy AdmissionPolicy) ThroughputResult {
		eng := sim.NewEngine()
		env := clusterEnv(eng)
		return RunThroughput(env, mkJobs(), policy, serverPages, 16)
	}
	full, far := run(FullMemory), run(FarMemorySLO)
	if full.Completed != 8 || far.Completed != 8 {
		t.Fatalf("jobs lost: full=%d far=%d", full.Completed, far.Completed)
	}
	if far.PeakParallel <= full.PeakParallel {
		t.Fatalf("far memory parallelism %d not above full-memory %d",
			far.PeakParallel, full.PeakParallel)
	}
	if far.Throughput <= full.Throughput {
		t.Fatalf("far-memory throughput %.1f/h not above baseline %.1f/h",
			far.Throughput, full.Throughput)
	}
}

func TestPlacementKindStrings(t *testing.T) {
	kinds := map[PlacementKind]string{ViaOnlineVM: "online-vm", ViaFreeVM: "free-vm",
		ViaSwitch: "switched-vm", ViaCreate: "created-vm", ViaNone: "unplaced"}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("kind %d = %q, want %q", k, k.String(), want)
		}
	}
}

func TestClusterTraceProfiles(t *testing.T) {
	lo := clustertrace.Snapshot(clustertrace.Alibaba2017(), 5000, 7)
	hi := clustertrace.Snapshot(clustertrace.Alibaba2018(), 5000, 7)
	if m := clustertrace.Mean(lo); math.Abs(m-0.4895) > 0.02 {
		t.Fatalf("2017 mean %.4f, want ~0.4895", m)
	}
	if m := clustertrace.Mean(hi); math.Abs(m-0.8705) > 0.02 {
		t.Fatalf("2018 mean %.4f, want ~0.8705", m)
	}
	for _, u := range append(lo, hi...) {
		if u < 0.02 || u > 0.995 {
			t.Fatalf("utilization %v out of range", u)
		}
	}
	// Determinism.
	lo2 := clustertrace.Snapshot(clustertrace.Alibaba2017(), 5000, 7)
	for i := range lo {
		if lo[i] != lo2[i] {
			t.Fatal("snapshot not deterministic")
		}
	}
	s := clustertrace.Series(clustertrace.Alibaba2017(), 100, 3)
	if len(s) != 100 {
		t.Fatal("series length wrong")
	}
}

// Algorithm 1's system_pressure input: a saturated device must be excluded
// from backend selection, diverting placement to the next-best option.
func TestDispatcherAvoidsSaturatedBackend(t *testing.T) {
	eng := sim.NewEngine()
	env := clusterEnv(eng)
	for _, name := range env.Machine.BackendNames() {
		env.Machine.CreateVM("vm-"+name, 4, 4096, []string{name})
	}
	eng.Run()

	d := NewDispatcher(env)
	app := App{Spec: friendlySpec(), SLO: 1.6, Seed: 1, Cores: 1}
	f := baseline.Profile(app.Spec, app.Seed)
	first := d.Dispatch(app, f, nil)
	if first.Via == ViaNone {
		t.Fatal("baseline dispatch failed")
	}
	preferred := first.Backend
	d.Release(first)

	// Saturate the preferred device: flood its queue far beyond 4x width.
	dev := env.Machine.Device(preferred)
	be := env.Machine.Backend(preferred)
	for i := 0; i < 8*dev.Channels()+64; i++ {
		be.Submit(swap.Extent{Pages: 64, Sequential: true}, nil)
	}
	// Let the submissions land in the device queues.
	eng.RunUntil(eng.Now().Add(50 * sim.Microsecond))
	if !dev.Saturated() {
		t.Skipf("could not saturate %s (queue %d)", preferred, dev.QueueDepth())
	}

	second := d.Dispatch(app, f, nil)
	if second.Via == ViaNone {
		t.Fatal("dispatch under pressure failed entirely")
	}
	if second.Backend == preferred {
		t.Fatalf("dispatcher placed on the saturated backend %s", preferred)
	}
}
