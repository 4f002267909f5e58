package cluster

import (
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/trace"
)

// AdmissionPolicy decides how much local memory a job needs before it can
// start — the lever behind the task-throughput study (Fig 16).
type AdmissionPolicy int

// Admission policies.
const (
	// FullMemory is the no-far-memory baseline: a job occupies its whole
	// footprint in local DRAM.
	FullMemory AdmissionPolicy = iota
	// FarMemorySLO sizes each job's local share with xDM's console at the
	// job's SLO, offloading the rest to far memory.
	FarMemorySLO
)

// ThroughputResult summarizes one admission-queue run.
type ThroughputResult struct {
	Completed int
	Makespan  sim.Duration
	// Throughput is completed jobs per simulated hour.
	Throughput float64
	// PeakParallel is the maximum concurrently running jobs.
	PeakParallel int
}

// RunThroughput feeds jobs through a single server with serverPages of
// local memory and serverCores cores, admitting FIFO as resources free up,
// and reports the achieved task throughput. Jobs run concurrently and
// contend for the machine's far-memory devices.
func RunThroughput(env baseline.Env, jobs []App, policy AdmissionPolicy, serverPages, serverCores int) ThroughputResult {
	eng := env.Machine.Eng
	type pending struct {
		required int
		cores    int
		cfg      task.Config
		ratio    float64
	}

	assigned := map[string]int{}
	queue := make([]*pending, 0, len(jobs))
	for _, app := range jobs {
		p := &pending{cores: app.Cores}
		if p.cores < 1 {
			p.cores = 1
		}
		switch policy {
		case FullMemory:
			p.ratio = 1.0
			// Without far memory the whole footprint must fit.
			p.required = app.Spec.FootprintPages
			// Jobs still need their file pages from storage.
			p.cfg = baseline.Prepare(baseline.LinuxSwap, env, env.Machine.Backend(env.FileBackend), app.Spec, 1.0, app.Seed)
		case FarMemorySLO:
			f := baseline.Profile(app.Spec, app.Seed)
			backendName := pickBackend(env, app, f, assigned)
			assigned[backendName]++
			be := env.Machine.Backend(backendName)
			setup := baseline.PrepareXDM(env, be, app.Spec, f, -1, app.SLO, app.Seed)
			p.ratio = setup.Config.LocalRatio
			p.required = int(p.ratio * float64(app.Spec.FootprintPages))
			p.cfg = setup.Config
		}
		queue = append(queue, p)
	}

	freePages, freeCores := serverPages, serverCores
	running, completed, peak := 0, 0, 0
	start := eng.Now()

	var admit func()
	admit = func() {
		for len(queue) > 0 {
			head := queue[0]
			if head.required > serverPages {
				// Can never run on this server; count as rejected by
				// skipping (the paper's setup sizes servers to fit).
				queue = queue[1:]
				continue
			}
			if head.required > freePages || head.cores > freeCores {
				return
			}
			queue = queue[1:]
			freePages -= head.required
			freeCores -= head.cores
			running++
			if running > peak {
				peak = running
			}
			h := head
			task.New(h.cfg).Start(func(task.Stats) {
				freePages += h.required
				freeCores += h.cores
				running--
				completed++
				admit()
			})
		}
	}
	admit()
	eng.Run()

	res := ThroughputResult{
		Completed:    completed,
		Makespan:     eng.Now().Sub(start),
		PeakParallel: peak,
	}
	if res.Makespan > 0 {
		res.Throughput = float64(completed) / (res.Makespan.Seconds() / 3600)
	}
	return res
}

// pickBackend runs the console's backend selection for one job, whose page
// features are f, against the machine's catalog, then spreads load across
// the machine's devices of the winning kind: with multiple far-memory
// backends attached, concurrent jobs land on different devices instead of
// contending on one — the multi-backend scale-out this system exists for.
func pickBackend(env baseline.Env, app App, f trace.Features, assigned map[string]int) string {
	opts := baseline.CatalogOptions(env)
	ranked := core.SelectBackend(nil, opts, f, app.Spec.ComputePerAccess)
	if len(ranked) == 0 {
		return env.FileBackend
	}
	var winner core.BackendOption
	for _, o := range opts {
		if o.Name == ranked[0].Name {
			winner = o
			break
		}
	}
	// Least-pending device of the winning kind.
	best := ranked[0].Name
	bestLoad := int(^uint(0) >> 1)
	for _, o := range opts {
		if o.Kind != winner.Kind {
			continue
		}
		be := env.Machine.Backend(o.Name)
		load := assigned[o.Name] + be.Pending() + be.Device().QueueDepth()
		if load < bestLoad {
			best, bestLoad = o.Name, load
		}
	}
	return best
}
