package baseline

import (
	"testing"

	"repro/internal/device"
	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/swap"
	"repro/internal/task"
	"repro/internal/vm"
	"repro/internal/workload"
)

func testEnv(eng *sim.Engine) Env {
	m := vm.NewMachine(eng, pcie.Gen4, 16, 20, 1<<22)
	m.AttachDevice(device.SpecTestbedSSD("ssd0"))
	m.AttachDevice(device.SpecConnectX5("rdma0"))
	m.AttachDevice(device.SpecRemoteDRAM("dram0"))
	return Env{Machine: m, FileBackend: "ssd0"}
}

func tinySpec() workload.Spec {
	return workload.Spec{
		Name: "tiny", Class: workload.Compute, MaxMemGiB: 0.5,
		FootprintPages: 512, AnonFraction: 0.9, Coverage: 1.0,
		SegmentLen: 256, SeqShare: 0.8, RunLen: 48,
		HotShare: 0.3, HotProb: 0.4, WriteFraction: 0.3,
		ComputePerAccess: 100 * sim.Nanosecond, MainAccesses: 4096, SwapFeature: 'F',
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

func TestPrepareBaselineShapes(t *testing.T) {
	eng := sim.NewEngine()
	env := testEnv(eng)
	for _, sys := range []System{LinuxSwap, Fastswap, TMO, XMemPod} {
		cfg := Prepare(sys, env, env.Machine.Backend("ssd0"), tinySpec(), 0.5, 1)
		if !viaHost(eng, cfg.SwapPath) {
			t.Errorf("%s: path not hierarchical", sys)
		}
		if cfg.SwapPath.Channel() != env.Machine.SharedChannel() {
			t.Errorf("%s: not on the shared channel", sys)
		}
		if cfg.GranularityPages != 8 {
			t.Errorf("%s: granularity %d, want 8 (kernel readahead)", sys, cfg.GranularityPages)
		}
		if cfg.AdaptiveWindow {
			t.Errorf("%s: kernel readahead must be non-adaptive", sys)
		}
	}
}

func TestPrepareRejectsXDM(t *testing.T) {
	eng := sim.NewEngine()
	env := testEnv(eng)
	defer func() {
		if recover() == nil {
			t.Fatal("Prepare(XDM) did not panic")
		}
	}()
	Prepare(XDM, env, env.Machine.Backend("ssd0"), tinySpec(), 0.5, 1)
}

func TestProfileFeatures(t *testing.T) {
	f := Profile(tinySpec(), 1)
	if f.SeqRatio < 0.6 || f.SeqRatio > 0.95 {
		t.Fatalf("profiled seq ratio %.2f out of band", f.SeqRatio)
	}
	if f.AnonRatio < 0.88 || f.AnonRatio > 0.9 {
		t.Fatalf("anon ratio %.4f, want ~0.9", f.AnonRatio)
	}
	if f.TouchedPages == 0 {
		t.Fatal("profile saw no pages")
	}
}

func TestPrepareXDMShape(t *testing.T) {
	eng := sim.NewEngine()
	env := testEnv(eng)
	setup := PrepareXDM(env, env.Machine.Backend("rdma0"), tinySpec(), Profile(tinySpec(), 1), 0.5, 1.3, 1)
	cfg := setup.Config
	if viaHost(eng, cfg.SwapPath) {
		t.Fatal("xDM path must bypass the host")
	}
	if cfg.SwapPath.Channel() == env.Machine.SharedChannel() {
		t.Fatal("xDM channel must be isolated")
	}
	if cfg.GranularityPages < 2 {
		t.Fatalf("sequential workload should tune granularity > 1, got %d", cfg.GranularityPages)
	}
	if setup.Decision.Width < 1 || cfg.SwapPath.Backend().Name() != "rdma0" {
		t.Fatalf("decision incomplete: %+v on %s", setup.Decision, cfg.SwapPath.Backend().Name())
	}
	if cfg.Trace == nil || cfg.OnEpoch == nil {
		t.Fatal("xDM run must observe its trace and retune online")
	}
}

func TestPrepareXDMConsoleSizesLocalRatio(t *testing.T) {
	eng := sim.NewEngine()
	env := testEnv(eng)
	setup := PrepareXDM(env, env.Machine.Backend("rdma0"), tinySpec(), Profile(tinySpec(), 1), -1, 1.5, 1)
	d := setup.Decision
	if setup.Config.LocalRatio < 0.1 || setup.Config.LocalRatio > 1 {
		t.Fatalf("console local ratio %v out of range", setup.Config.LocalRatio)
	}
	if setup.Config.SwapPath.Backend().Name() != "rdma0" || d.GranularityPages < 1 || d.Width < 1 {
		t.Fatalf("decision incomplete: %+v on %s", d, setup.Config.SwapPath.Backend().Name())
	}
}

// End-to-end sanity: on the same RDMA backend, xDM's sys time beats
// Fastswap's for a swap-friendly workload (the Table VI mechanism).
func TestXDMBeatsFastswapOnSameBackend(t *testing.T) {
	run := func(xdm bool) task.Stats {
		eng := sim.NewEngine()
		env := testEnv(eng)
		var cfg task.Config
		if xdm {
			cfg = PrepareXDM(env, env.Machine.Backend("rdma0"), tinySpec(), Profile(tinySpec(), 1), 0.4, 1.3, 1).Config
		} else {
			cfg = Prepare(Fastswap, env, env.Machine.Backend("rdma0"), tinySpec(), 0.4, 1)
		}
		var out task.Stats
		task.New(cfg).Start(func(s task.Stats) { out = s })
		eng.Run()
		return out
	}
	fs, xdm := run(false), run(true)
	if fs.SysTime == 0 || xdm.SysTime == 0 {
		t.Fatal("runs produced no sys time")
	}
	speedup := float64(fs.SysTime) / float64(xdm.SysTime)
	if speedup <= 1.2 {
		t.Fatalf("xDM speedup %.2fx over Fastswap, want > 1.2x (fs=%v xdm=%v)",
			speedup, fs.SysTime, xdm.SysTime)
	}
}

func TestOptionForAggregate(t *testing.T) {
	eng := sim.NewEngine()
	env := testEnv(eng)
	agg := swap.NewAggregateBackend(eng, "xdm-hetero",
		env.Machine.Backend("ssd0"), env.Machine.Backend("rdma0"))
	opt := OptionFor(agg)
	if opt.Name != "xdm-hetero" {
		t.Fatalf("option name %q", opt.Name)
	}
	if opt.Bandwidth != agg.Bandwidth() {
		t.Fatal("aggregate bandwidth not propagated")
	}
	if opt.OpLatency != device.SpecConnectX5("x").ReadLatency {
		t.Fatal("fastest member latency not used")
	}
}

func TestSystemsForBackend(t *testing.T) {
	if SystemsForBackend("ssd") != LinuxSwap || SystemsForBackend("hdd") != LinuxSwap {
		t.Fatal("storage backends should baseline against Linux swap")
	}
	if SystemsForBackend("rdma") != Fastswap || SystemsForBackend("dram") != Fastswap {
		t.Fatal("memory backends should baseline against Fastswap")
	}
}

func TestCalibratedLocalRatio(t *testing.T) {
	spec := tinySpec()
	spec.HotShare, spec.HotProb = 0.15, 0.9
	spec.ComputePerAccess = 500 * sim.Nanosecond
	tight := CalibratedLocalRatio(device.SpecConnectX5("rdma"), spec, 1.1, 1)
	loose := CalibratedLocalRatio(device.SpecConnectX5("rdma"), spec, 2.0, 1)
	if loose > tight {
		t.Fatalf("looser SLO demands more memory: tight=%v loose=%v", tight, loose)
	}
	if tight < 0.05 || tight > 1 || loose < 0.05 || loose > 1 {
		t.Fatalf("ratios out of range: %v %v", tight, loose)
	}
	// Memoized: second call returns the identical cached value.
	if again := CalibratedLocalRatio(device.SpecConnectX5("rdma"), spec, 2.0, 1); again != loose {
		t.Fatal("calibration cache miss on identical key")
	}
}

func TestCalibratedBaselineRatioIsMoreConservative(t *testing.T) {
	spec := tinySpec()
	spec.HotShare, spec.HotProb = 0.15, 0.9
	spec.ComputePerAccess = 500 * sim.Nanosecond
	xdm := CalibratedLocalRatio(device.SpecConnectX5("rdma"), spec, 1.8, 1)
	base := CalibratedBaselineRatio(Fastswap, device.SpecConnectX5("rdma"), spec, 1.8, 1)
	// The untuned stack degrades at least as fast: it cannot sustain more
	// offload than xDM at the same SLO.
	if base < xdm {
		t.Fatalf("baseline sustains more offload (%v) than xDM (%v)", base, xdm)
	}
}

func TestWidthForThreads(t *testing.T) {
	if widthForThreads(2, 8) != 8 {
		t.Fatal("threads should raise width")
	}
	if widthForThreads(4, 1) != 4 {
		t.Fatal("width should not drop")
	}
	if widthForThreads(20, 32) != 16 {
		t.Fatal("width should cap at 16")
	}
}

func TestRandomWindow(t *testing.T) {
	if randomWindow(device.SSD) != 4 || randomWindow(device.HDD) != 4 {
		t.Fatal("storage media should keep a small cluster")
	}
	if randomWindow(device.RDMA) != 1 || randomWindow(device.RemoteDRAM) != 1 {
		t.Fatal("low-latency media should fetch on demand")
	}
}
