// Package baseline wires complete run configurations for the systems the
// paper compares against (Table I/II/IV) and for xDM itself:
//
//	Linux swap — hierarchical path, shared swap channel, 4K granularity,
//	            disk or SSD backend.
//	Fastswap  — same path shape on RDMA/DRAM backends (kernel far-memory
//	            swap, shared LRU channel).
//	TMO       — same path shape on SSD/NVMe; its contribution is the
//	            offloading policy, modeled in the experiments layer.
//	XMemPod   — hierarchical hybrid: host DRAM tier overflowing to RDMA.
//	xDM       — VM bypass path, per-VM isolated channel, offline page-trace
//	            profiling, MEI backend selection, tuned granularity/width/
//	            local-ratio/NUMA (the full console).
package baseline

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/sim"
	"repro/internal/swap"
	"repro/internal/task"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
)

// System identifies a far-memory management system.
type System string

// The compared systems.
const (
	LinuxSwap System = "linux-swap"
	Fastswap  System = "fastswap"
	TMO       System = "tmo"
	XMemPod   System = "xmempod"
	XDM       System = "xdm"
)

// Env is the physical context runs execute in.
type Env struct {
	Machine *vm.Machine
	// FileBackend names the device serving file-backed pages (node storage).
	FileBackend string
}

// filePath builds the page-cache I/O path: bypass (file I/O does not cross
// the swap layer), with its own channel.
func (e Env) filePath() *swap.Path {
	b := e.Machine.Backend(e.FileBackend)
	if b == nil {
		panic(fmt.Sprintf("baseline: unknown file backend %q", e.FileBackend))
	}
	ch := swap.NewChannel(e.Machine.Eng, "filecache", 8)
	return swap.NewPath(e.Machine.Eng, b, ch)
}

// Prepare builds the task configuration for running spec under sys with the
// given swap backend and local-memory ratio. For XDM use PrepareXDM, which
// also returns the console's decision.
func Prepare(sys System, env Env, backend swap.Backend, spec workload.Spec, localRatio float64, seed int64) task.Config {
	eng := env.Machine.Eng
	cfg := task.Config{
		Eng:        eng,
		Name:       fmt.Sprintf("%s/%s", sys, spec.Name),
		Spec:       spec,
		Seed:       seed,
		LocalRatio: localRatio,
		FilePath:   env.filePath(),
	}
	// All traditional stacks use the kernel's fixed swap readahead window
	// (vm.page_cluster=3 → 8 pages), regardless of access pattern — exactly
	// the non-adaptivity xDM's granularity tuning removes.
	const kernelReadahead = 8
	switch sys {
	case LinuxSwap, Fastswap, TMO:
		// Traditional stack: hierarchical path through the host's swap
		// layer, shared channel, fixed readahead. Exception: a host-DRAM
		// backend is not behind a second device — the guest-to-host copy
		// *is* the swap-out — so its path has no extra hop.
		if backend.Kind() == device.RemoteDRAM {
			cfg.SwapPath = swap.NewPath(eng, backend, env.Machine.SharedChannel())
		} else {
			cfg.SwapPath = swap.NewHierarchicalPath(eng, backend, env.Machine.SharedChannel(), env.Machine.HostStage())
		}
		cfg.GranularityPages = kernelReadahead
	case XMemPod:
		// Hierarchical hybrid path; callers pass an AggregateBackend of
		// DRAM + RDMA to model its tiering.
		cfg.SwapPath = swap.NewHierarchicalPath(eng, backend, env.Machine.SharedChannel(), env.Machine.HostStage())
		cfg.GranularityPages = kernelReadahead
	default:
		panic(fmt.Sprintf("baseline: Prepare called for %q", sys))
	}
	return cfg
}

// widthForThreads raises a tuned width to at least the application's
// thread count (capped at 16 channels).
func widthForThreads(w, threads int) int {
	if threads > w {
		w = threads
	}
	if w > 16 {
		w = 16
	}
	return w
}

// randomWindow sizes the adaptive reader's cluster for isolated faults:
// high-latency media amortize their operation cost over a small cluster;
// low-latency media fetch on demand.
func randomWindow(k device.Kind) int {
	switch k {
	case device.SSD, device.HDD:
		return 4
	default:
		return 1
	}
}

// ProfileSeedOffset separates the offline profiling stream from the
// measured run: xDM's offline preparation observes a *different* execution
// of the same application.
const ProfileSeedOffset = 10007

// Profile performs xDM's offline preparation: replay one execution of spec
// into a page trace table and fuse its features. The allocation sweep is
// skipped — first-touch faults are zero-fill and never reach the swap path,
// so including them would bias every decision toward sequential streaming.
// A caller that profiles many requests keeps a Profiler instead.
func Profile(spec workload.Spec, seed int64) trace.Features {
	var p Profiler
	return p.Profile(spec, seed)
}

// Profiler runs Profile without allocating once warm: it reuses one access
// stream, one trace table and the table's sort scratch across calls. Each
// request owner that profiles many requests (a serving loop) keeps its own;
// it is not safe for concurrent use. The zero value is ready.
type Profiler struct {
	stream workload.Stream
	table  trace.Table
}

// Profile returns what the package-level Profile returns for spec and seed.
func (p *Profiler) Profile(spec workload.Spec, seed int64) trace.Features {
	p.table.Resize(spec.FootprintPages)
	s := &p.stream
	s.Reset(spec, seed+ProfileSeedOffset)
	for skip := s.MappedPages(); skip > 0; skip-- {
		if _, ok := s.Next(); !ok {
			break
		}
	}
	for {
		a, ok := s.Next()
		if !ok {
			break
		}
		p.table.Record(a.Page, a.Write)
	}
	anon := int(spec.AnonFraction * float64(spec.FootprintPages))
	return p.table.Features(anon)
}

// OptionFor derives a console BackendOption from a live swap backend.
func OptionFor(b swap.Backend) core.BackendOption {
	switch be := b.(type) {
	case *swap.DeviceBackend:
		opt := core.OptionFromSpec(be.Device().Spec())
		return opt
	case *swap.AggregateBackend:
		members := be.Members()
		fastest := members[0].Device().Spec()
		for _, m := range members[1:] {
			if s := m.Device().Spec(); s.ReadLatency < fastest.ReadLatency {
				fastest = s
			}
		}
		opt := core.OptionFromSpec(fastest)
		opt.Name = be.Name()
		opt.Kind = be.Kind()
		opt.Bandwidth = be.Bandwidth()
		opt.CostPerGB = be.CostPerGB()
		opt.MaxWidth = 16 * len(members)
		return opt
	default:
		// Generic backend (e.g. inter-node remote memory): build the option
		// from the interface, with kind-derived defaults for what the
		// interface cannot express.
		opt := core.BackendOption{
			Name:             b.Name(),
			Kind:             b.Kind(),
			Bandwidth:        b.Bandwidth(),
			ChannelBandwidth: b.Bandwidth() / 2,
			OpLatency:        3 * sim.Microsecond,
			CostPerGB:        b.CostPerGB(),
			MaxWidth:         16,
			Available:        true,
		}
		if lr, ok := b.(interface{ OpLatency() sim.Duration }); ok {
			opt.OpLatency = lr.OpLatency()
		}
		return opt
	}
}

// XDMSetup is a fully-prepared xDM run.
type XDMSetup struct {
	Config   task.Config
	Decision core.Decision
}

// PrepareXDM builds an xDM run on a *fixed* backend (as Table VI does,
// comparing systems on the same device): a bypass path with an isolated
// channel, prepared by PrepareXDMOn.
func PrepareXDM(env Env, backend swap.Backend, spec workload.Spec, f trace.Features, localRatio float64, slo float64, seed int64) XDMSetup {
	depth := 4
	if spec.Threads > depth {
		depth = spec.Threads
	}
	ch := swap.NewChannel(env.Machine.Eng, "xdm-"+spec.Name, depth)
	return PrepareXDMOn(env, swap.NewPath(env.Machine.Eng, backend, ch), spec, f, localRatio, slo, seed)
}

// PrepareXDMOn builds an xDM run that swaps through path, on the path's
// backend: transfer tuning for that backend from f, the offline profile the
// caller computed (Profile(spec, seed)), and online epoch-based retuning. A
// task hosted on a VM passes the VM's path. localRatio < 0 asks the console
// to size local memory for the given SLO instead.
func PrepareXDMOn(env Env, path *swap.Path, spec workload.Spec, f trace.Features, localRatio float64, slo float64, seed int64) XDMSetup {
	eng := env.Machine.Eng
	backend := path.Backend()
	opt := OptionFor(backend)

	if localRatio < 0 {
		// Offline-prepared sizing: use the calibrated staging measurement
		// when a concrete device backs the path, the analytic model
		// otherwise.
		if db, ok := backend.(*swap.DeviceBackend); ok {
			localRatio = CalibratedLocalRatio(db.Device().Spec(), spec, slo, seed)
		} else if agg, ok := backend.(*swap.AggregateBackend); ok {
			localRatio = CalibratedLocalRatio(agg.Members()[0].Device().Spec(), spec, slo, seed)
		} else {
			localRatio = core.MinLocalRatio(opt, f, spec.ComputePerAccess, slo)
		}
	}
	budget := int(localRatio * float64(spec.FootprintPages))
	g, w := core.TuneTransferBudget(opt, f, budget)
	// The width knob must cover the application's parallelism: concurrent
	// faulting threads each need a channel (the paper's multi-threaded I/O
	// channel allocation).
	w = widthForThreads(w, spec.Threads)
	backend.SetWidth(w)

	table := trace.NewTable(spec.FootprintPages)
	cfg := task.Config{
		Eng:               eng,
		Name:              fmt.Sprintf("xdm/%s", spec.Name),
		Spec:              spec,
		Seed:              seed,
		LocalRatio:        localRatio,
		SwapPath:          path,
		FilePath:          env.filePath(),
		GranularityPages:  g,
		AdaptiveWindow:    true,
		RandomWindowPages: randomWindow(backend.Kind()),
		NUMAPolicy:        core.ChooseNUMA(f, spec.ComputePerAccess),
		Trace:             table,
	}

	// Online retuning: every epoch, fuse the *window's* trace (the table is
	// reset each epoch so stale phases don't linger) and adjust the
	// granularity and width. The first epoch is the allocation sweep —
	// fully sequential and unrepresentative — so it only clears the window.
	// The closure captures only what it reads, so neither cfg nor spec
	// moves to the heap.
	cfg.EpochAccesses = spec.FootprintPages
	anon := int(spec.AnonFraction * float64(spec.FootprintPages))
	threads := spec.Threads
	epoch := 0
	cfg.OnEpoch = func(t *task.Task) {
		epoch++
		if epoch > 1 {
			live := table.Features(anon)
			ng, nw := core.TuneTransferBudget(opt, live, t.Cgroup().LimitPages)
			t.SetGranularity(ng)
			backend.SetWidth(widthForThreads(nw, threads))
		}
		table.Reset()
	}

	d := core.Decision{
		GranularityPages: g,
		Width:            w,
		NUMA:             cfg.NUMAPolicy,
	}
	return XDMSetup{Config: cfg, Decision: d}
}

// SystemsForBackend reports which baseline system the paper runs on each
// backend kind in Table VI (Linux swap on SSD, Fastswap on RDMA and DRAM).
func SystemsForBackend(kindName string) System {
	switch kindName {
	case "ssd", "hdd":
		return LinuxSwap
	default:
		return Fastswap
	}
}
