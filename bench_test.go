package repro

// The benchmark harness: one benchmark per table and figure of the paper's
// evaluation (Section V), plus the design-choice ablations from DESIGN.md §4
// and microbenchmarks of the simulation substrate itself.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Benchmarks report reproduced headline metrics via b.ReportMetric (e.g.
// speedup ratios), so the paper-facing numbers appear directly in the
// benchmark output. benchScale (default 4) trades fidelity for time; the
// standalone cmd/xdmsim binary runs everything at full scale.

import (
	"io"
	"testing"

	"repro/internal/baseline"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/mem"
	"repro/internal/pcie"
	"repro/internal/place"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/swap"
	"repro/internal/task"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/vm"
	"repro/internal/workload"
)

// benchScale is the fidelity divisor for benchmark runs.
const benchScale = 4

func benchOptions() experiments.Options {
	return experiments.Options{Scale: benchScale, Seed: 1}
}

// runExperiment executes the experiment once per iteration, discarding the
// rendered output (the numbers of record live in EXPERIMENTS.md, generated
// by cmd/xdmsim at full scale).
func runExperiment(b *testing.B, id string) []experiments.Table {
	b.Helper()
	var tables []experiments.Table
	for i := 0; i < b.N; i++ {
		var ok bool
		tables, ok = experiments.Run(id, benchOptions())
		if !ok {
			b.Fatalf("experiment %s missing", id)
		}
		for _, t := range tables {
			t.Render(io.Discard)
		}
	}
	return tables
}

// --- one benchmark per paper artifact ---

func BenchmarkFig1b(b *testing.B) { runExperiment(b, "fig1b") }
func BenchmarkFig2b(b *testing.B) { runExperiment(b, "fig2b") }
func BenchmarkFig3(b *testing.B)  { runExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)  { runExperiment(b, "fig4") }
func BenchmarkFig5a(b *testing.B) { runExperiment(b, "fig5a") }
func BenchmarkFig5b(b *testing.B) { runExperiment(b, "fig5b") }
func BenchmarkFig8(b *testing.B)  { runExperiment(b, "fig8") }
func BenchmarkFig10(b *testing.B) { runExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B) { runExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B) { runExperiment(b, "fig12") }

func BenchmarkTable6(b *testing.B) {
	var cells []experiments.Table6Cell
	for i := 0; i < b.N; i++ {
		cells = experiments.Table6Data(benchOptions())
	}
	var sum, max float64
	for _, c := range cells {
		sp := c.Speedup()
		sum += sp
		if sp > max {
			max = sp
		}
	}
	b.ReportMetric(sum/float64(len(cells)), "speedup-mean")
	b.ReportMetric(max, "speedup-max")
}

func BenchmarkTable7(b *testing.B) { runExperiment(b, "tab7") }

func BenchmarkFig14(b *testing.B) { runExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B) { runExperiment(b, "fig15") }

func BenchmarkFig16(b *testing.B) {
	var best float64
	for i := 0; i < b.N; i++ {
		norm, _ := experiments.Fig16Data(benchOptions(), 12)
		best = 0
		for _, row := range norm {
			for _, v := range row {
				if v > best {
					best = v
				}
			}
		}
	}
	b.ReportMetric(best, "throughput-gain-max")
}

func BenchmarkFig17(b *testing.B) { runExperiment(b, "fig17") }
func BenchmarkCXL(b *testing.B)   { runExperiment(b, "cxl") }
func BenchmarkAlg1(b *testing.B)  { runExperiment(b, "alg1") }

func BenchmarkInterNode(b *testing.B) { runExperiment(b, "internode") }

func BenchmarkDynamic(b *testing.B) { runExperiment(b, "dynamic") }
func BenchmarkFig18(b *testing.B)   { runExperiment(b, "fig18") }
func BenchmarkFig19(b *testing.B)   { runExperiment(b, "fig19") }

func BenchmarkFaultRecovery(b *testing.B) {
	var rows []experiments.FaultRecoveryRow
	for i := 0; i < b.N; i++ {
		rows = experiments.FaultRecoveryData(benchOptions())
	}
	// Headline: how much faster failure-aware switching restores 90% of
	// pre-fault throughput after a transient outage than a static backend.
	var staticMTTR, xdmMTTR sim.Duration
	for _, r := range rows {
		if r.Scenario.String() != "flap" {
			continue
		}
		switch r.System {
		case "static":
			staticMTTR = r.MTTR
		case "xdm-failover":
			xdmMTTR = r.MTTR
		}
	}
	if staticMTTR > 0 && xdmMTTR > 0 {
		b.ReportMetric(staticMTTR.Seconds()/xdmMTTR.Seconds(), "recovery-x")
		b.ReportMetric(xdmMTTR.Seconds(), "mttr-s")
	}
}

// --- design-choice ablations (DESIGN.md §4) ---

func BenchmarkAblationBypass(b *testing.B) {
	var r float64
	for i := 0; i < b.N; i++ {
		r = experiments.AblationBypass(benchOptions())
	}
	b.ReportMetric(r, "hier/bypass-systime")
}

func BenchmarkAblationIsolation(b *testing.B) {
	var r float64
	for i := 0; i < b.N; i++ {
		r = experiments.AblationIsolation(benchOptions())
	}
	b.ReportMetric(r, "shared/isolated-latency")
}

func BenchmarkAblationMEI(b *testing.B) {
	var r float64
	for i := 0; i < b.N; i++ {
		r = experiments.AblationMEI(benchOptions())
	}
	b.ReportMetric(r, "worst/best-backend-runtime")
}

func BenchmarkAblationKnobs(b *testing.B) {
	var g, w, a float64
	for i := 0; i < b.N; i++ {
		g = experiments.AblationKnob(benchOptions(), "granularity")
		w = experiments.AblationKnob(benchOptions(), "width")
		a = experiments.AblationKnob(benchOptions(), "adaptive")
	}
	b.ReportMetric(g, "no-gran-tuning")
	b.ReportMetric(w, "no-width-tuning")
	b.ReportMetric(a, "no-adaptive-window")
}

func BenchmarkAblationWarmStart(b *testing.B) {
	var warm, cold sim.Duration
	for i := 0; i < b.N; i++ {
		warm, cold = experiments.AblationWarmStart(benchOptions())
	}
	b.ReportMetric(warm.Seconds(), "warm-placement-s")
	b.ReportMetric(cold.Seconds(), "cold-placement-s")
}

// --- substrate microbenchmarks ---

func BenchmarkEngineEvents(b *testing.B) {
	eng := sim.NewEngine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.After(sim.Duration(i%1000), func() {})
		if i%1024 == 1023 {
			eng.Run()
		}
	}
	eng.Run()
}

func BenchmarkFabricTransfers(b *testing.B) {
	eng := sim.NewEngine()
	fb := pcie.NewFabric(eng)
	path := []*pcie.Link{fb.NewLink("l", units.GBps(10))}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fb.Transfer(4096, path, nil)
		if i%256 == 255 {
			eng.Run()
		}
	}
	eng.Run()
}

func BenchmarkDevicePageOp(b *testing.B) {
	eng := sim.NewEngine()
	h := device.NewHost(eng, pcie.Gen4, 16)
	d := h.Attach(device.SpecConnectX5("rdma"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Submit(device.Op{Size: units.PageSize, Sequential: true}, nil)
		if i%256 == 255 {
			eng.Run()
		}
	}
	eng.Run()
}

// BenchmarkLedgerReserveRelease is the arena dispatcher's per-task ledger
// cost: one debit at dispatch and one credit at completion on a 5000-node
// ledger, cycling through the nodes.
func BenchmarkLedgerReserveRelease(b *testing.B) {
	const nodes = 5000
	l := place.NewLedger(nodes, 4, 1024, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := i % nodes
		l.Reserve(n, 1, 256)
		l.Release(n, 1, 256)
	}
}

// BenchmarkPlace is one placement decision on a 5000-node ledger, the
// arena dispatcher's serial cost per task. A third of the nodes carry work,
// so scores differ across the fleet. Only the warm-pool extender reads the
// feasible set, so only its policy copies candidates.
func BenchmarkPlace(b *testing.B) {
	const nodes = 5000
	l := place.NewLedger(nodes, 4, 1024, place.DefaultOversubFactor)
	for i := 0; i < nodes; i += 3 {
		l.Reserve(i, 1+i%3, 128*(1+i%5))
	}
	r := place.Request{Cores: 1, Pages: 256}
	for _, name := range []string{"worst-fit", "best-fit", "alg1", "oversub:1.25", "best-fit+warm-pool"} {
		pol := place.Builtin(name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if pol.Place(r, l.Candidates()) < 0 {
					b.Fatal("nothing placed")
				}
			}
		})
	}
}

func BenchmarkLRUTouch(b *testing.B) {
	ps := mem.NewPageSet(4096)
	for i := int32(0); i < 4096; i++ {
		ps.MakeResident(i, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps.Touch(int32(i%4096), i%3 == 0)
	}
}

func BenchmarkTraceRecord(b *testing.B) {
	tbl := trace.NewTable(16384)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Record(int32(i%16384), i%4 == 0)
	}
}

func BenchmarkWorkloadStream(b *testing.B) {
	s := workload.NewStream(workload.ByName("lg-bc"), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Next(); !ok {
			s = workload.NewStream(workload.ByName("lg-bc"), int64(i))
		}
	}
}

// profileSink keeps BenchmarkProfile's results live.
var profileSink trace.Features

// BenchmarkProfile measures xDM's offline profile of one serving request,
// the lookup template at scale 8 (128 pages, 256 accesses), with a new seed
// per request as the serving loop draws them. "fresh" is baseline.Profile,
// which builds a stream and a trace table per call; "warm" reuses one
// baseline.Profiler, as the serving loop does.
func BenchmarkProfile(b *testing.B) {
	spec := serve.RequestTemplates()[0].Spec
	spec.FootprintPages /= 8
	spec.MainAccesses /= 8
	spec.SegmentLen = min(spec.SegmentLen, spec.FootprintPages)
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			profileSink = baseline.Profile(spec, int64(i))
		}
	})
	b.Run("warm", func(b *testing.B) {
		var p baseline.Profiler
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			profileSink = p.Profile(spec, int64(i))
		}
	})
}

func BenchmarkSwapPathOp(b *testing.B) {
	eng := sim.NewEngine()
	h := device.NewHost(eng, pcie.Gen4, 16)
	be := swap.NewDeviceBackend(eng, h.Attach(device.SpecConnectX5("rdma")))
	p := swap.NewPath(eng, be, swap.NewChannel(eng, "ch", 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.SwapIn(swap.Extent{Pages: 1, Sequential: true}, nil)
		if i%256 == 255 {
			eng.Run()
		}
	}
	eng.Run()
}

// BenchmarkTaskLifecycle builds, runs and finishes one serving request's
// task (1024 pages, half of them resident, on an RDMA swap path) per op on
// a warm engine. "fresh" builds each task's storage anew, as single-node
// experiments do; "pooled" recycles it through a task.Pool, as arena shards
// and serving runs do.
func BenchmarkTaskLifecycle(b *testing.B) {
	spec := serve.RequestTemplates()[1].Spec
	for _, pooled := range []bool{false, true} {
		name := "fresh"
		if pooled {
			name = "pooled"
		}
		b.Run(name, func(b *testing.B) {
			eng := sim.NewEngine()
			h := device.NewHost(eng, pcie.Gen4, 16)
			be := swap.NewDeviceBackend(eng, h.Attach(device.SpecConnectX5("rdma")))
			cfg := task.Config{
				Eng: eng, Name: "req", Spec: spec, LocalRatio: 0.5,
				SwapPath:         swap.NewPath(eng, be, swap.NewChannel(eng, "ch", 4)),
				GranularityPages: 32, AdaptiveWindow: true,
			}
			var pool *task.Pool
			if pooled {
				pool = new(task.Pool)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg.Seed = int64(i)
				pool.New(cfg).Start(nil)
				eng.Run()
			}
		})
	}
}

func BenchmarkEndToEndTask(b *testing.B) {
	spec := workload.ByName("lg-bfs")
	spec.FootprintPages /= benchScale
	spec.MainAccesses /= benchScale
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		m := vm.NewMachine(eng, pcie.Gen3, 16, 20, 64*workload.PagesPerGiB)
		m.AttachDevice(device.SpecTestbedSSD("ssd"))
		m.AttachDevice(device.SpecConnectX5("rdma"))
		env := baseline.Env{Machine: m, FileBackend: "ssd"}
		setup := baseline.PrepareXDM(env, m.Backend("rdma"), spec, baseline.Profile(spec, 1), 0.5, 1.4, 1)
		done := false
		task.New(setup.Config).Start(func(task.Stats) { done = true })
		eng.Run()
		if !done {
			b.Fatal("task did not finish")
		}
	}
}
