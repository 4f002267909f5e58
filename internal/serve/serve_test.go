package serve

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/device"
	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/vm"
	"repro/internal/workload"
)

// servingEnv builds a fresh machine with the named backends attached.
// Backend names choose their device model by prefix (ssd/rdma/dram).
func servingEnv(backends ...string) baseline.Env {
	eng := sim.NewEngine()
	m := vm.NewMachine(eng, pcie.Gen4, 40, 16, 1<<20)
	for _, name := range backends {
		switch {
		case strings.HasPrefix(name, "rdma"):
			m.AttachDevice(device.SpecConnectX5(name))
		case strings.HasPrefix(name, "dram"):
			m.AttachDevice(device.SpecRemoteDRAM(name))
		default:
			m.AttachDevice(device.SpecTestbedSSD(name))
		}
	}
	return baseline.Env{Machine: m, FileBackend: backends[0]}
}

func warmedEnv(backends ...string) baseline.Env {
	env := servingEnv(backends...)
	PrewarmFleet(env, 4, 2, 4096)
	return env
}

// withInvariants enables the checking layer around fn, failing the test on
// any violation.
func withInvariants(t *testing.T, fn func()) {
	t.Helper()
	var violations []invariant.Violation
	restore := invariant.SetHandler(func(v invariant.Violation) {
		violations = append(violations, v)
	})
	defer restore()
	invariant.Reset()
	invariant.Enable()
	defer invariant.Disable()
	fn()
	for _, v := range violations {
		t.Errorf("invariant violated: %v", v)
	}
}

func TestServeUnderloadedAllInSLO(t *testing.T) {
	env := warmedEnv("ssd0", "rdma0")
	res := Run(env, Config{
		Templates: RequestTemplates(),
		Arrivals:  workload.Poisson{RPS: 50},
		Duration:  4 * sim.Second,
		Drain:     sim.Second,
		SLO:       100 * sim.Millisecond,
		Shedding:  true,
		Seed:      1,
	})
	if res.Offered == 0 || res.Admitted != res.Offered {
		t.Fatalf("underloaded run refused traffic: %+v", res)
	}
	if res.Completed != res.Admitted || res.InFlight != 0 {
		t.Fatalf("underloaded run did not drain: %+v", res)
	}
	if res.SLOViolationFrac != 0 {
		t.Fatalf("underloaded run violated SLO: %+v", res)
	}
	if res.GoodputRPS <= 0 {
		t.Fatalf("no goodput: %+v", res)
	}
}

// TestServeConservation checks the conservation law under the nastiest mix
// available: a flash crowd driving the server deep into overload while one
// backend fails and recovers mid-run. Ops that were in flight on the dead
// backend must fail through the path's retry bound, not hang the run.
func TestServeConservation(t *testing.T) {
	withInvariants(t, func() {
		env := warmedEnv("ssd0", "rdma0")
		arr, err := workload.ParseArrival("flash:100:8:1:2", 7)
		if err != nil {
			t.Fatal(err)
		}
		// Fault window: rdma0 dies during the crowd, comes back after.
		dev := env.Machine.Device("rdma0")
		eng := env.Machine.Eng
		base := eng.Now()
		eng.At(base.Add(1500*sim.Millisecond), dev.Fail)
		eng.At(base.Add(3*sim.Second), dev.Recover)

		res := Run(env, Config{
			Templates: RequestTemplates(),
			Arrivals:  arr,
			Duration:  5 * sim.Second,
			Drain:     sim.Second,
			SLO:       100 * sim.Millisecond,
			Shedding:  true,
			Seed:      3,
		})

		// The law also holds on the final numbers, independently of the
		// invariant layer.
		refused := res.RefusedQueueFull + res.RefusedDeadline + res.RefusedThrottle
		if res.Offered != refused+res.Admitted {
			t.Fatalf("offered %d != refused %d + admitted %d", res.Offered, refused, res.Admitted)
		}
		if res.Admitted != res.Completed+res.Shed+res.InFlight {
			t.Fatalf("admitted %d != completed %d + shed %d + in-flight %d",
				res.Admitted, res.Completed, res.Shed, res.InFlight)
		}
		if res.Completed == 0 {
			t.Fatal("nothing completed")
		}
		var failed uint64
		for _, v := range env.Machine.VMs() {
			if p := v.PathFor("rdma0"); p != nil {
				failed += p.FailedOps.Value
			}
		}
		if failed == 0 {
			t.Fatal("no op failed through on rdma0 while it was dead")
		}
	})
	if ckConservation.Hits() == 0 {
		t.Fatal("serve.conservation was never evaluated")
	}
}

// TestServeDeterministic pins byte-identical results for identical seeds,
// and different results for different seeds (the seed is actually used).
func TestServeDeterministic(t *testing.T) {
	run := func(seed int64) Result {
		env := warmedEnv("ssd0", "rdma0")
		return Run(env, Config{
			Templates: RequestTemplates(),
			Arrivals:  workload.Diurnal{BaseRPS: 150, Amplitude: 0.8, Period: 2 * sim.Second},
			Duration:  4 * sim.Second,
			Drain:     sim.Second,
			SLO:       100 * sim.Millisecond,
			Shedding:  true,
			Seed:      seed,
		})
	}
	a, b := run(11), run(11)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical runs diverged:\n%+v\n%+v", a, b)
	}
	if c := run(12); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical results")
	}
}

// TestFlashCrowdSheddingDefendsSLO is the headline overload test: under an
// 8x flash crowd, the shedder keeps the admitted traffic's placement p99
// within the SLO while a no-shedding baseline blows through it — at a
// goodput no worse than 10% below the baseline's.
func TestFlashCrowdSheddingDefendsSLO(t *testing.T) {
	slo := 100 * sim.Millisecond
	run := func(shed bool) Result {
		env := warmedEnv("ssd0", "rdma0")
		arr, err := workload.ParseArrival("flash:100:8:1:2", 7)
		if err != nil {
			t.Fatal(err)
		}
		// The baseline has no overload protection beyond the queue bound:
		// with Shedding off there is no deadline either, so the queue
		// soaks the crowd and delay explodes.
		return Run(env, Config{
			Templates: RequestTemplates(),
			Arrivals:  arr,
			Duration:  5 * sim.Second,
			Drain:     2 * sim.Second,
			SLO:       slo,
			Shedding:  shed,
			Seed:      7,
		})
	}
	shed, base := run(true), run(false)

	if base.DelayP99 <= slo {
		t.Fatalf("baseline p99 %v did not violate the %v SLO; crowd too small", base.DelayP99, slo)
	}
	if shed.DelayP99 > slo {
		t.Fatalf("shedder let admitted p99 reach %v, over the %v SLO", shed.DelayP99, slo)
	}
	if shed.Shed+shed.RefusedDeadline+shed.RefusedThrottle == 0 {
		t.Fatal("shedder shed nothing under an 8x flash crowd")
	}
	if shed.GoodputRPS < 0.9*base.GoodputRPS {
		t.Fatalf("shedding cost too much goodput: %.1f vs baseline %.1f",
			shed.GoodputRPS, base.GoodputRPS)
	}
}

// TestCapacitySweepXDMBeatsStatic is the acceptance bar for capacity
// discovery: the sweep finds a finite knee for both a static single-backend
// fleet and an xdm multi-backend fleet, and the multi-backend capacity is
// strictly higher.
func TestCapacitySweepXDMBeatsStatic(t *testing.T) {
	base := Config{
		Templates: RequestTemplates(),
		SLO:       100 * sim.Millisecond,
		Seed:      1,
	}
	// The serving fleet is memory-overcommitted: VM DRAM holds half of a
	// request's footprint, so the other half must live on a backend and
	// backend speed sets the service time. That is where multi-backend
	// capacity comes from; with enough DRAM per VM both configurations
	// serve from local memory and tie.
	warm := func(backends ...string) func() baseline.Env {
		return func() baseline.Env {
			env := servingEnv(backends...)
			PrewarmFleet(env, 4, 2, 1024)
			return env
		}
	}
	sweeps := []NamedSweep{
		{Name: "static-ssd", Run: Fleet(warm("ssd0"), base),
			Cap: CapacityConfig{StartRPS: 4, StepRPS: 4, MaxRPS: 48, Window: 2 * sim.Second}},
		{Name: "xdm", Run: Fleet(warm("ssd0", "rdma0", "dram0"), base),
			Cap: CapacityConfig{StartRPS: 100, StepRPS: 100, MaxRPS: 1200, Window: sim.Second}},
	}
	results := []CapacityResult{Sweep(sweeps[0]), Sweep(sweeps[1])}

	static, xdm := results[0], results[1]
	if !static.Tripped {
		t.Fatalf("static sweep never tripped: %+v", static)
	}
	if !xdm.Tripped {
		t.Fatalf("xdm sweep never tripped: %+v", xdm)
	}
	if static.MaxSustainableRPS <= 0 || xdm.MaxSustainableRPS <= 0 {
		t.Fatalf("degenerate knees: static %.0f, xdm %.0f", static.MaxSustainableRPS, xdm.MaxSustainableRPS)
	}
	if xdm.MaxSustainableRPS <= static.MaxSustainableRPS {
		t.Fatalf("xdm capacity %.0f not above static %.0f",
			xdm.MaxSustainableRPS, static.MaxSustainableRPS)
	}

	// Render sanity: every configuration section present, knee reported.
	text := RenderCapacity(results)
	for _, want := range []string{"static-ssd", "xdm", "max sustainable", "OVERLOAD"} {
		if !strings.Contains(text, want) {
			t.Fatalf("render missing %q:\n%s", want, text)
		}
	}
}

// TestServeObservability pins the exported counters against the run's
// result, and checks that a request swaps through its VM's path alone: no
// isolated xdm channel or path is built, so none is exported.
func TestServeObservability(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	defer obs.Reset()
	env := servingEnv("ssd0", "rdma0")
	rec := obs.Attach(env.Machine.Eng)
	PrewarmFleet(env, 4, 2, 4096)

	arr, err := workload.ParseArrival("flash:100:6:1:2", 9)
	if err != nil {
		t.Fatal(err)
	}
	res := Run(env, Config{
		Templates: RequestTemplates(),
		Arrivals:  arr,
		Duration:  4 * sim.Second,
		Drain:     sim.Second,
		SLO:       100 * sim.Millisecond,
		Shedding:  true,
		Seed:      9,
	})
	rec.Seal()
	for name, want := range map[string]int{
		"serve/offered":   res.Offered,
		"serve/admitted":  res.Admitted,
		"serve/shed":      res.Shed,
		"serve/completed": res.Completed,
	} {
		if got := rec.Counter(name).Value; got != float64(want) {
			t.Errorf("counter %s = %v, want %d", name, got, want)
		}
	}
	var csv bytes.Buffer
	if err := obs.WriteMetricsCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), ",counter,swap/serve-") {
		t.Fatal("metrics carry no VM path counters")
	}
	for _, line := range strings.Split(csv.String(), "\n") {
		if strings.Contains(line, ",swap/xdm-") || strings.Contains(line, ",swapch/xdm-") {
			t.Fatalf("serving registered an isolated xdm path: %s", line)
		}
	}
}

// TestQueueBound drives a small overcommitted fleet into deep overload
// with Shedding off: the bounded queue is the only front-door protection
// left, and it must refuse at its cap rather than grow.
func TestQueueBound(t *testing.T) {
	env := servingEnv("ssd0", "dram0")
	PrewarmFleet(env, 4, 2, 1024)
	res := Run(env, Config{
		Templates: RequestTemplates(),
		Arrivals:  workload.Poisson{RPS: 2000},
		Duration:  3 * sim.Second,
		Drain:     sim.Second,
		SLO:       100 * sim.Millisecond,
		Seed:      13,
	})
	if res.RefusedQueueFull == 0 {
		t.Fatalf("bounded queue never refused under 2000 rps overload: %+v", res)
	}
	// Without Shedding neither the deadline nor the shedder acts.
	if res.RefusedDeadline != 0 || res.RefusedThrottle != 0 || res.Shed != 0 || res.Degraded != 0 {
		t.Fatalf("overload control beyond the queue bound acted with Shedding off: %+v", res)
	}
	if res.MaxQueue > queueCap {
		t.Fatalf("queue grew past its cap: %d", res.MaxQueue)
	}
	if res.Completed == 0 {
		t.Fatal("nothing completed")
	}
}

func TestPrewarmFleet(t *testing.T) {
	env := servingEnv("ssd0", "rdma0")
	PrewarmFleet(env, 4, 2, 4096)
	vms := env.Machine.VMs()
	if len(vms) != 4 {
		t.Fatalf("fleet size %d, want 4", len(vms))
	}
	byBackend := map[string]int{}
	for i, v := range vms {
		if v.State() != vm.Free {
			t.Fatalf("VM %d not Free after prewarm: %v", i, v.State())
		}
		byBackend[v.ActiveBackend()]++
	}
	// Round-robin: 4 VMs over 2 backends → 2 each.
	if byBackend["ssd0"] != 2 || byBackend["rdma0"] != 2 {
		t.Fatalf("fleet not spread round-robin: %v", byBackend)
	}
}
