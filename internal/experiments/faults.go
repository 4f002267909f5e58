package experiments

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/workload"
)

func init() { register("faults", FaultRecovery) }

// Fault-recovery scenario timing. The task reaches steady state, the active
// backend fails at faultInjectAt, and throughput is observed for
// faultObserveFor afterwards. All offsets are from task start.
const (
	faultSampleEvery = 100 * sim.Millisecond
	faultInjectAt    = 6 * sim.Second
	faultFlapFor     = 15 * sim.Second // transient-outage window
	faultObserveFor  = faultFlapFor + 10*sim.Second
	faultHorizon     = faultInjectAt + faultObserveFor + 5*sim.Second

	// faultRecoveryWin is the trailing sample count (1 s) of the windowed
	// throughput used for dip/availability/MTTR, smoothing sampling noise.
	faultRecoveryWin = 10

	// faultLocalRatio keeps half the probe's footprint local, so roughly
	// every other access exercises the far-memory path.
	faultLocalRatio = 0.5
)

// Availability / recovery thresholds: a sample counts as available when the
// windowed rate is at least half the pre-fault rate; recovery is reaching
// 90% of it (the paper-style time-to-90% MTTR).
const (
	faultAvailFrac   = 0.5
	faultRecoverFrac = 0.9
)

// FaultRecoveryRow is one (system, scenario) measurement.
type FaultRecoveryRow struct {
	System   string // "xdm-failover" | "static"
	Scenario faults.Kind
	Backend  string // the faulted backend

	PreRate float64 // steady-state accesses/s before the fault
	Dip     float64 // lowest windowed rate after the fault, as a share of PreRate
	Avail   float64 // share of the observe window at >= faultAvailFrac * PreRate
	// MTTR is the time from fault injection until the windowed rate is back
	// to faultRecoverFrac * PreRate; -1 means it never recovered in the
	// observe window.
	MTTR sim.Duration
	// TTA is the time from fault injection until the windowed rate is back
	// to faultAvailFrac * PreRate — "service restored" for recoveries that
	// land on a slower medium (a fabric demotion to SSD can be available
	// without ever reaching faultRecoverFrac). -1 means never in window.
	TTA sim.Duration

	Switches  int
	LostPages uint64
	Spark     string
}

// faultSpec is the steady probe workload: uniform random accesses with a
// fixed compute cost per access, sized so the task outlives the observation
// horizon — availability is measured on a task that never finishes early.
func faultSpec(o Options) workload.Spec {
	foot := 8192 / o.Scale
	if foot < 1024 {
		foot = 1024
	}
	const threads = 2
	compute := 200 * sim.Microsecond
	perWorker := int(faultHorizon / compute)
	return workload.Spec{
		Name:             "fault-probe",
		Class:            workload.Compute,
		Description:      "steady uniform probe for availability measurement",
		FootprintPages:   foot,
		AnonFraction:     1,
		Coverage:         1,
		SegmentLen:       512,
		SeqShare:         0.2,
		RunLen:           4,
		HotShare:         1,
		HotProb:          0,
		WriteFraction:    0.3,
		ComputePerAccess: compute,
		MainAccesses:     threads * perWorker * 13 / 10,
		Threads:          threads,
		SwapFeature:      'F',
	}
}

// runFaultScenario runs the probe once under one fault kind. With failover
// true it uses the failure-aware controller (warm VM backends, health
// monitors, live switch); otherwise a static xDM run pinned to the given
// backend, with the same retry policies so dead-backend ops fail through
// instead of hanging. Returns the measured row; for failover runs the
// chosen initial backend is in row.Backend so the static run can be pinned
// to the same device.
func runFaultScenario(o Options, kind faults.Kind, failover bool, pinned string) FaultRecoveryRow {
	o = o.normalize()
	eng := sim.NewEngine()
	env := testbed(eng)
	spec := faultSpec(o)

	var cfg task.Config
	var run *baseline.FailoverRun
	target := pinned
	if failover {
		v := env.Machine.CreateVM("fault-probe-vm", spec.Threads, 2*spec.FootprintPages,
			[]string{"rdma", "ssd", "dram"})
		if v == nil {
			panic("experiments: faults VM creation failed")
		}
		eng.Run() // boot the VM so its warm backends are ready
		run = baseline.PrepareXDMFailover(env, v, spec, faultLocalRatio, o.Seed)
		cfg = run.Config
		target = run.Initial
	} else {
		be := env.Machine.Backend(target)
		if be == nil {
			panic("experiments: faults unknown backend " + target)
		}
		setup := baseline.PrepareXDM(env, be, spec, baseline.Profile(spec, o.Seed), faultLocalRatio, 1.4, o.Seed)
		cfg = setup.Config
		// Same per-op timeout/retry discipline as the failover system, so
		// the static baseline fails through rather than hanging forever —
		// but no health monitor and nowhere to switch.
		cfg.SwapPath.Retry = true
		if cfg.FilePath != nil {
			cfg.FilePath.Retry = true
		}
	}

	tk := task.New(cfg)
	if run != nil {
		run.Bind(tk)
	}

	inj := faults.NewInjector(eng)
	dev := env.Machine.Device(target)
	if dev == nil {
		panic("experiments: faults backend has no device: " + target)
	}
	inj.Register(dev)
	ev := faults.Event{At: faultInjectAt, Target: target, Kind: kind}
	if kind == faults.Flap {
		ev.Duration = faultFlapFor
	}
	inj.Apply(faults.Schedule{Events: []faults.Event{ev}})

	start := eng.Now()
	tl := metrics.NewTimeline(eng, faultSampleEvery, func() float64 {
		return float64(tk.Stats().Accesses)
	})
	tk.Start(func(task.Stats) {})
	eng.RunUntil(start.Add(faultHorizon))
	tl.Stop()

	row := measureRecovery(tl.Samples())
	row.Scenario = kind
	row.Backend = target
	if failover {
		row.System = "xdm-failover"
		row.Switches = len(run.Switches)
	} else {
		row.System = "static"
	}
	row.LostPages = tk.Stats().LostPages
	return row
}

// measureRecovery turns a cumulative access-count timeline (sampled every
// faultSampleEvery from task start) into the recovery measurements:
// steady-state PreRate, windowed Dip, availability share, and time-to-90%
// MTTR, plus the sparkline. Shared by the single-backend faults experiment
// and the fabric-failover grid so their numbers are directly comparable.
func measureRecovery(samples []float64) FaultRecoveryRow {
	var row FaultRecoveryRow
	deltas := metrics.Delta(samples)
	interval := faultSampleEvery.Seconds()
	// timeOf(i) is the sample instant: the first sample fires one interval
	// after task start.
	timeOf := func(i int) sim.Duration { return sim.Duration(i+1) * faultSampleEvery }
	windowed := func(i int) float64 {
		lo := i - faultRecoveryWin + 1
		if lo < 0 {
			lo = 0
		}
		sum := 0.0
		for j := lo; j <= i; j++ {
			sum += deltas[j]
		}
		return sum / float64(i-lo+1) / interval
	}

	// Steady-state rate over the 3 s before the fault.
	preSum, preN := 0.0, 0
	for i := range deltas {
		at := timeOf(i)
		if at > faultInjectAt-3*sim.Second && at <= faultInjectAt {
			preSum += deltas[i] / interval
			preN++
		}
	}
	if preN > 0 {
		row.PreRate = preSum / float64(preN)
	}
	if row.PreRate <= 0 {
		row.Dip, row.MTTR, row.TTA = 1, -1, -1
		row.Spark = metrics.Sparkline(deltas, 40)
		return row
	}

	row.Dip = 1.0
	row.MTTR = -1
	row.TTA = -1
	dipped := false
	availN, obsN := 0, 0
	for i := range deltas {
		at := timeOf(i)
		if at <= faultInjectAt || at > faultInjectAt+faultObserveFor {
			continue
		}
		obsN++
		w := windowed(i)
		frac := w / row.PreRate
		if frac >= faultAvailFrac {
			availN++
		}
		if frac < row.Dip {
			row.Dip = frac
			dipped = true
		}
		// Recovery: first return to faultRecoverFrac after the rate has
		// actually dipped below it; TTA is the same clock against the
		// availability threshold.
		if dipped && row.Dip < faultRecoverFrac && row.MTTR < 0 && frac >= faultRecoverFrac {
			row.MTTR = at - faultInjectAt
		}
		if dipped && row.Dip < faultAvailFrac && row.TTA < 0 && frac >= faultAvailFrac {
			row.TTA = at - faultInjectAt
		}
	}
	if obsN > 0 {
		row.Avail = float64(availN) / float64(obsN)
	}
	row.Spark = metrics.Sparkline(deltas, 40)
	return row
}

// FaultRecoveryData runs both fault scenarios (transient flap, permanent
// crash) against the failure-aware system and the static single-backend
// baseline. The failover run goes first so the static baseline can be
// pinned to the same backend the controller chose — both systems lose the
// same device.
func FaultRecoveryData(o Options) []FaultRecoveryRow {
	kinds := []faults.Kind{faults.Flap, faults.Crash}
	// The static run of a scenario depends on the failover run's backend
	// choice, so each scenario is one grid cell (internally sequential);
	// scenarios fan out across workers.
	pairs := runGrid(o, len(kinds), func(i int) [2]FaultRecoveryRow {
		xdm := runFaultScenario(o, kinds[i], true, "")
		static := runFaultScenario(o, kinds[i], false, xdm.Backend)
		return [2]FaultRecoveryRow{static, xdm}
	})
	var rows []FaultRecoveryRow
	for _, p := range pairs {
		rows = append(rows, p[0], p[1])
	}
	return rows
}

// fmtMTTR renders a recovery time, with ∞ for "not within the window".
func fmtMTTR(d sim.Duration) string {
	if d < 0 {
		return "∞"
	}
	return fmt.Sprintf("%.1fs", d.Seconds())
}

// FaultRecovery renders the fault-injection experiment: availability,
// throughput dip, and MTTR of failure-aware xDM vs a static single-backend
// baseline when the active backend flaps or dies.
func FaultRecovery(o Options) []Table {
	rows := FaultRecoveryData(o)
	t := Table{
		ID:    "faults",
		Title: "backend failure: availability, throughput dip, MTTR (xDM failover vs static)",
		Columns: []string{"fault", "system", "backend", "pre acc/s", "dip",
			"avail", "MTTR", "switches", "lost pages"},
	}
	byKey := map[string]FaultRecoveryRow{}
	for _, r := range rows {
		byKey[r.Scenario.String()+"/"+r.System] = r
		t.AddRow(r.Scenario.String(), r.System, r.Backend,
			fmt.Sprintf("%.0f", r.PreRate), pct(r.Dip), pct(r.Avail),
			fmtMTTR(r.MTTR), fmt.Sprintf("%d", r.Switches),
			fmt.Sprintf("%d", r.LostPages))
	}
	if s, x := byKey["flap/static"], byKey["flap/xdm-failover"]; s.MTTR > 0 && x.MTTR > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"flap recovery: xdm-failover back to %d%% in %s vs static %s (%.1fx faster)",
			int(faultRecoverFrac*100), fmtMTTR(x.MTTR), fmtMTTR(s.MTTR),
			s.MTTR.Seconds()/x.MTTR.Seconds()))
	}
	for _, r := range rows {
		t.Notes = append(t.Notes, fmt.Sprintf("%s/%s acc/s %s", r.Scenario, r.System, r.Spark))
	}
	return []Table{t}
}
