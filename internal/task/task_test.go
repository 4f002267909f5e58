package task

import (
	"testing"

	"repro/internal/device"
	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/swap"
	"repro/internal/trace"
	"repro/internal/workload"
)

// rig bundles a single-node test environment.
type rig struct {
	eng  *sim.Engine
	host *device.Host
	ssd  *swap.DeviceBackend
	rdma *swap.DeviceBackend
}

func newRig() *rig {
	eng := sim.NewEngine()
	host := device.NewHost(eng, pcie.Gen4, 16)
	return &rig{
		eng:  eng,
		host: host,
		ssd:  swap.NewDeviceBackend(eng, host.Attach(device.SpecTestbedSSD("ssd0"))),
		rdma: swap.NewDeviceBackend(eng, host.Attach(device.SpecConnectX5("rdma0"))),
	}
}

func (r *rig) path(b *swap.DeviceBackend, depth int) *swap.Path {
	return swap.NewPath(r.eng, b, swap.NewChannel(r.eng, b.Name()+"-ch", depth))
}

func smallSpec() workload.Spec {
	return workload.Spec{
		Name: "tiny", Class: workload.Compute, MaxMemGiB: 0.01,
		FootprintPages: 512, AnonFraction: 0.9, Coverage: 1.0,
		SegmentLen: 512, SeqShare: 0.7, RunLen: 32,
		HotShare: 0.25, HotProb: 0.5, WriteFraction: 0.3,
		ComputePerAccess: 100 * sim.Nanosecond, MainAccesses: 4096, SwapFeature: 'S',
	}
}

func runTask(r *rig, cfg Config) Stats {
	var out Stats
	finished := false
	New(cfg).Start(func(s Stats) { out = s; finished = true })
	r.eng.Run()
	if !finished {
		panic("task did not finish")
	}
	return out
}

func TestTaskRunsToCompletionWithoutPressure(t *testing.T) {
	r := newRig()
	stats := runTask(r, Config{
		Eng: r.eng, Name: "t", Spec: smallSpec(), Seed: 1,
		LocalRatio: 1.0, SwapPath: r.path(r.rdma, 4), FilePath: r.path(r.ssd, 4),
	})
	if stats.Accesses == 0 {
		t.Fatal("no accesses")
	}
	// At full local ratio anonymous pages never swap: PagesIn must be 0,
	// but file pages still refault from storage once.
	if stats.PagesIn != 0 {
		t.Fatalf("PagesIn=%d at local ratio 1.0", stats.PagesIn)
	}
	if stats.MinorFaults == 0 {
		t.Fatal("no zero-fill faults despite fresh address space")
	}
	if stats.FileRefaults == 0 {
		t.Fatal("file pages never loaded")
	}
	if stats.Runtime <= 0 || stats.UserTime <= 0 || stats.SysTime <= 0 {
		t.Fatalf("times not accumulated: %+v", stats)
	}
}

func TestMemoryPressureCausesSwapTraffic(t *testing.T) {
	r := newRig()
	stats := runTask(r, Config{
		Eng: r.eng, Name: "t", Spec: smallSpec(), Seed: 1,
		LocalRatio: 0.4, SwapPath: r.path(r.rdma, 4), FilePath: r.path(r.ssd, 4),
	})
	if stats.MajorFaults == 0 || stats.PagesIn == 0 || stats.PagesOut == 0 {
		t.Fatalf("no swap activity under pressure: %+v", stats)
	}
	if stats.ReclaimedPages == 0 {
		t.Fatal("no reclaim under pressure")
	}
}

func TestLowerLocalRatioMeansMoreSysTime(t *testing.T) {
	measure := func(ratio float64) sim.Duration {
		r := newRig()
		return runTask(r, Config{
			Eng: r.eng, Name: "t", Spec: smallSpec(), Seed: 1,
			LocalRatio: ratio, SwapPath: r.path(r.rdma, 4), FilePath: r.path(r.ssd, 4),
		}).SysTime
	}
	high, low := measure(0.9), measure(0.3)
	if low <= high {
		t.Fatalf("sys time at ratio 0.3 (%v) not above ratio 0.9 (%v)", low, high)
	}
}

func TestGranularityPrefetchingHelpsSequentialWorkload(t *testing.T) {
	seqSpec := smallSpec()
	seqSpec.SeqShare = 0.95
	seqSpec.RunLen = 64
	measure := func(gran int) Stats {
		r := newRig()
		return runTask(r, Config{
			Eng: r.eng, Name: "t", Spec: seqSpec, Seed: 1,
			LocalRatio: 0.4, GranularityPages: gran,
			SwapPath: r.path(r.rdma, 8), FilePath: r.path(r.ssd, 4),
		})
	}
	g1, g16 := measure(1), measure(16)
	if g16.PrefetchHits == 0 {
		t.Fatal("no prefetch hits at granularity 16")
	}
	if g16.MajorFaults >= g1.MajorFaults {
		t.Fatalf("granularity 16 faults (%d) not below granularity 1 (%d)",
			g16.MajorFaults, g1.MajorFaults)
	}
	if g16.SysTime >= g1.SysTime {
		t.Fatalf("sequential workload: granularity 16 sys time (%v) not below 4K (%v)",
			g16.SysTime, g1.SysTime)
	}
}

func TestLargeGranularityHurtsRandomWorkload(t *testing.T) {
	randSpec := smallSpec()
	randSpec.SeqShare = 0.05
	randSpec.RunLen = 2
	randSpec.HotProb = 0 // uniform random
	measure := func(gran int) Stats {
		r := newRig()
		return runTask(r, Config{
			Eng: r.eng, Name: "t", Spec: randSpec, Seed: 1,
			LocalRatio: 0.4, GranularityPages: gran,
			SwapPath: r.path(r.ssd, 8), FilePath: r.path(r.ssd, 4),
		})
	}
	g1, g64 := measure(1), measure(64)
	// I/O amplification: fetching 64 pages to use one evicts useful pages
	// and wastes bandwidth; runtime must suffer.
	if g64.Runtime <= g1.Runtime {
		t.Fatalf("random workload: granularity 64 runtime (%v) not above 4K (%v)",
			g64.Runtime, g1.Runtime)
	}
	if g64.PagesIn <= g1.PagesIn {
		t.Fatalf("no amplification visible: pagesIn %d vs %d", g64.PagesIn, g1.PagesIn)
	}
}

func TestSysTimeExcludesCompute(t *testing.T) {
	spec := smallSpec()
	spec.ComputePerAccess = 10 * sim.Microsecond // compute-heavy
	r := newRig()
	stats := runTask(r, Config{
		Eng: r.eng, Name: "t", Spec: spec, Seed: 1,
		LocalRatio: 0.5, SwapPath: r.path(r.rdma, 4), FilePath: r.path(r.ssd, 4),
	})
	if stats.UserTime <= stats.SysTime {
		t.Fatalf("compute-heavy task: user %v should dominate sys %v", stats.UserTime, stats.SysTime)
	}
	if stats.Runtime < stats.UserTime {
		t.Fatalf("runtime %v below user time %v", stats.Runtime, stats.UserTime)
	}
}

func TestTraceObservation(t *testing.T) {
	spec := smallSpec()
	tbl := trace.NewTable(spec.FootprintPages)
	r := newRig()
	stats := runTask(r, Config{
		Eng: r.eng, Name: "t", Spec: spec, Seed: 1,
		LocalRatio: 0.6, SwapPath: r.path(r.rdma, 4), FilePath: r.path(r.ssd, 4),
		Trace: tbl,
	})
	if tbl.Accesses() != stats.Accesses {
		t.Fatalf("trace saw %d accesses, task did %d", tbl.Accesses(), stats.Accesses)
	}
	f := tbl.Features(461)
	if f.SeqRatio <= 0 || f.HotRatio <= 0 {
		t.Fatalf("degenerate features: %+v", f)
	}
}

func TestEpochHookFires(t *testing.T) {
	r := newRig()
	epochs := 0
	runTask(r, Config{
		Eng: r.eng, Name: "t", Spec: smallSpec(), Seed: 1,
		LocalRatio: 0.5, SwapPath: r.path(r.rdma, 4), FilePath: r.path(r.ssd, 4),
		EpochAccesses: 1000, OnEpoch: func(tk *Task) { epochs++ },
	})
	if epochs < 3 {
		t.Fatalf("epoch hook fired %d times, want >= 3", epochs)
	}
}

func TestDoubleStartPanics(t *testing.T) {
	r := newRig()
	tk := New(Config{
		Eng: r.eng, Name: "t", Spec: smallSpec(), Seed: 1,
		LocalRatio: 0.5, SwapPath: r.path(r.rdma, 4),
	})
	tk.Start(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("double start did not panic")
		}
	}()
	tk.Start(nil)
}

func TestHierarchicalPathSlowerThanBypass(t *testing.T) {
	measure := func(hierarchical bool) sim.Duration {
		r := newRig()
		ch := swap.NewChannel(r.eng, "ch", 4)
		var p *swap.Path
		if hierarchical {
			p = swap.NewHierarchicalPath(r.eng, r.rdma, ch, swap.NewHostSwapStage(r.eng, swap.DefaultHostWorkers))
		} else {
			p = swap.NewPath(r.eng, r.rdma, ch)
		}
		return runTask(r, Config{
			Eng: r.eng, Name: "t", Spec: smallSpec(), Seed: 1,
			LocalRatio: 0.4, SwapPath: p, FilePath: r.path(r.ssd, 4),
		}).SysTime
	}
	bypass, hier := measure(false), measure(true)
	if hier <= bypass {
		t.Fatalf("hierarchical sys time (%v) not above bypass (%v)", hier, bypass)
	}
}

func TestStatsBytesSwapped(t *testing.T) {
	s := Stats{PagesIn: 2, PagesOut: 3}
	if s.BytesSwapped() != 5*4096 {
		t.Fatal("BytesSwapped wrong")
	}
}

func TestTaskAccessors(t *testing.T) {
	r := newRig()
	p := r.path(r.rdma, 4)
	tk := New(Config{
		Eng: r.eng, Name: "acc", Spec: smallSpec(), Seed: 1,
		LocalRatio: 0.5, GranularityPages: 4, SwapPath: p,
	})
	if tk.SwapPath() != p {
		t.Fatal("SwapPath accessor")
	}
	if tk.granularity != 4 {
		t.Fatal("Granularity accessor")
	}
	tk.SetGranularity(0)
	if tk.granularity != 1 {
		t.Fatal("SetGranularity clamp")
	}
	p2 := r.path(r.ssd, 4)
	tk.SetSwapPath(p2)
	if tk.SwapPath() != p2 {
		t.Fatal("SetSwapPath")
	}
	if tk.Stats().Accesses != 0 {
		t.Fatal("fresh task stats not zero")
	}
}
