package fabric

import (
	"fmt"
	"slices"

	"repro/internal/cluster"
	"repro/internal/device"
	"repro/internal/faults"
	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/pcie"
	"repro/internal/place"
	"repro/internal/sim"
	"repro/internal/swap"
	"repro/internal/task"
	"repro/internal/vm"
	"repro/internal/workload"
)

// Registered invariant for the cell's lease ledger: the pool slabs the
// cell's task leases attribute to each host must always equal what the pool
// ledger says that host holds — the cross-layer residency conservation law.
var ckCellLeases = invariant.Register("fabric.cell.lease-conservation")

// Config describes a multi-host cell sharing one switch.
type Config struct {
	Eng  *sim.Engine
	Name string
	Spec Spec

	CoresPerHost int
	// DRAMPagesPerHost is each host's resident-memory budget.
	DRAMPagesPerHost int
	// FarPagesPerHost sizes far capacity. Pooled cells give each host this
	// much private switch capacity plus a shared DCD pool of
	// Spec.Pool × Hosts × FarPagesPerHost pages; static cells split the
	// same total into fixed per-host partitions of (1+Spec.Pool) × this.
	FarPagesPerHost int
	// Pooled selects DCD pooling; false is the static-partition baseline.
	Pooled bool

	// Templates are cycled to generate the closed-loop task list.
	Templates []cluster.App
	Tasks     int
	// LocalRatio is each task's resident share (the far share swaps).
	LocalRatio float64

	// Policy overrides the host-side placement policy (nil = worst-fit).
	// The cell runs a copy extended with the far-capacity predicate and,
	// when pooled with Spec.Placer == PlacerFabric, the in-fabric
	// PoolExtender; Policy itself is never modified.
	Policy *place.Policy

	Seed int64
	// RefetchPenalty is the per-page re-materialization cost after a
	// failover demotion drops far copies.
	RefetchPenalty sim.Duration
}

// Result is one cell run's outcome.
type Result struct {
	Placed    int
	Refused   int
	Completed int
	// Makespan is when the last placed task finished.
	Makespan sim.Duration
	// StrandedFrac is the peak fraction of total far capacity that was free
	// but unreachable for the request at a placement failure.
	StrandedFrac float64
	// PoolGrants counts slabs granted through the DCD ledger.
	PoolGrants uint64
	// WriterEpochs and CoherenceCost summarize back-invalidation traffic on
	// the pool's shared ledger region.
	WriterEpochs  uint64
	CoherenceCost sim.Duration
	// LostPages counts the far copies dropped with fabric-failover
	// backend switches.
	LostPages uint64
}

// host is one machine's view in the cell.
type host struct {
	port *swap.DeviceBackend
	ssd  *swap.DeviceBackend

	freeCores int
	freePages int
	// farFree is the host's free private far capacity (its fixed partition
	// of the switch memory).
	farFree int
	load    int
	// leasedSlabs mirrors the pool's per-host residency for the
	// conservation invariant.
	leasedSlabs int
}

// lease is one placed task's capacity hold.
type lease struct {
	host     int
	cores    int
	pages    int
	farPages int // private far pages held (0 when pooled)
	slabs    int // pool slabs held (0 when private)
}

// runningTask is one placed task and its failover state.
type runningTask struct {
	t       *task.Task
	lease   lease
	demoted bool
}

// Cell is N hosts around one switch: a closed-loop FIFO dispatcher placing
// tasks by the host-side policy (optionally delegating pooled capacity to
// the in-fabric allocator), with per-task leases on cores, DRAM, and far
// capacity. Everything runs on one engine, so output is a pure function of
// the configuration — worker and shard counts cannot reach it.
type Cell struct {
	cfg    Config
	eng    *sim.Engine
	sw     *Switch
	pool   *Pool
	coh    *Coherence
	meta   int // the pool ledger's shared coherence region
	policy *place.Policy
	hosts  []*host

	queue   []int // pending task indices
	running []*runningTask

	totalFar  int
	placed    int
	refused   int
	completed int
	lastDone  sim.Time
	stranded  float64
	demotions int
	lost      uint64

	rec *obs.Recorder
}

// NewCell builds the cell; tasks start when Run (or the engine) runs.
func NewCell(cfg Config) *Cell {
	if cfg.Name == "" {
		cfg.Name = "cell"
	}
	if cfg.Spec.Hosts < 1 || cfg.Spec.Slab < 1 {
		panic(fmt.Sprintf("fabric: cell %q with unconfigured spec %+v", cfg.Name, cfg.Spec))
	}
	if len(cfg.Templates) == 0 || cfg.Tasks < 1 {
		panic(fmt.Sprintf("fabric: cell %q without tasks", cfg.Name))
	}
	c := &Cell{cfg: cfg, eng: cfg.Eng}
	c.sw = NewSwitch(cfg.Eng, cfg.Name+"/sw", cfg.Spec.Hops)

	poolPages := 0
	privateFar := cfg.FarPagesPerHost
	if cfg.Pooled {
		poolPages = int(cfg.Spec.Pool * float64(cfg.Spec.Hosts*cfg.FarPagesPerHost))
	} else {
		privateFar += int(cfg.Spec.Pool * float64(cfg.FarPagesPerHost))
	}
	c.pool = NewPool(cfg.Eng, cfg.Name+"/pool", cfg.Spec.Hosts, poolPages/cfg.Spec.Slab, cfg.Spec.Slab)
	c.coh = NewCoherence()
	c.meta = c.coh.Region(cfg.Spec.Hosts)
	c.totalFar = cfg.Spec.Hosts*privateFar + c.pool.Capacity()*cfg.Spec.Slab

	for h := 0; h < cfg.Spec.Hosts; h++ {
		m := vm.NewMachine(cfg.Eng, pcie.Gen5, 16, cfg.CoresPerHost, cfg.DRAMPagesPerHost)
		name := fmt.Sprintf("%s/h%02d", cfg.Name, h)
		m.AttachDevice(device.SpecTestbedSSD(name + ".ssd"))
		_, port := c.sw.AttachPort(m, name+".far")
		c.hosts = append(c.hosts, &host{
			port: port, ssd: m.Backend(name + ".ssd"),
			freeCores: cfg.CoresPerHost, freePages: cfg.DRAMPagesPerHost, farFree: privateFar,
		})
	}

	base := cfg.Policy
	if base == nil {
		base = place.Builtin("worst-fit")
	}
	// Extend a copy: the caller's policy is immutable and may back other
	// cells. Clipped slices make append reallocate instead of writing into
	// the caller's backing arrays.
	policy := *base
	policy.Predicates = slices.Clip(policy.Predicates)
	policy.Extenders = slices.Clip(policy.Extenders)
	// Far demand is a hard constraint in both modes; the predicate lives
	// here rather than in the standard chain so far-less frontends never
	// pay for it.
	policy.Predicates = append(policy.Predicates, place.FarCapacityPredicate())
	if cfg.Pooled && cfg.Spec.Placer == PlacerFabric {
		policy.Extenders = append(policy.Extenders, PoolExtender(c.pool))
	}
	c.policy = &policy

	for i := 0; i < cfg.Tasks; i++ {
		c.queue = append(c.queue, i)
	}
	if obs.On {
		c.rec = obs.Rec(cfg.Eng)
	}
	c.eng.Immediately(c.fill)
	return c
}

// Switch exposes the cell's switch for fault injection.
func (c *Cell) Switch() *Switch { return c.sw }

// template returns task i's workload template.
func (c *Cell) template(i int) cluster.App { return c.cfg.Templates[i%len(c.cfg.Templates)] }

// demand reports task i's resource needs: cores, resident pages, and the
// far residency its swapped share can reach.
func (c *Cell) demand(i int) (cores, resident, far int) {
	app := c.template(i)
	cores = app.Cores
	if cores < 1 {
		cores = 1
	}
	foot := app.Spec.FootprintPages
	ratio := c.cfg.LocalRatio
	if ratio < 0.05 {
		ratio = 0.05
	}
	if ratio > 1 {
		ratio = 1
	}
	resident = int(float64(foot) * ratio)
	if resident < 1 {
		resident = 1
	}
	far = foot - resident
	return cores, resident, far
}

// candidates projects the host ledgers into the policy's view.
func (c *Cell) candidates() []place.Candidate {
	out := make([]place.Candidate, len(c.hosts))
	poolFree := c.pool.FreePages()
	for h, hs := range c.hosts {
		out[h] = place.Candidate{
			ID:         h,
			FreeCores:  hs.freeCores,
			FreePages:  hs.freePages,
			TotalCores: c.cfg.CoresPerHost,
			TotalPages: c.cfg.DRAMPagesPerHost,
			FarFree:    hs.farFree,
			PoolFree:   poolFree,
			Load:       hs.load,
			Tier:       1,
			Healthy:    !hs.port.Device().Down(),
			Accepts:    true,
		}
	}
	return out
}

// fill places queued tasks head-of-line: the first task that does not fit
// blocks the queue until a completion frees capacity (or is refused when it
// could never fit). Stranding is captured at every placement failure.
func (c *Cell) fill() {
	for len(c.queue) > 0 {
		i := c.queue[0]
		cores, resident, far := c.demand(i)
		r := place.Request{Cores: cores, Pages: resident, FarPages: far}
		cands := c.candidates()
		h := c.policy.Place(r, cands)
		if h < 0 {
			c.captureStranding(r, cands)
			if len(c.running) == 0 {
				// Nothing will ever free capacity: refuse and move on.
				c.refused++
				c.queue = c.queue[1:]
				continue
			}
			return // head-of-line blocks until a completion retries
		}
		c.queue = c.queue[1:]
		c.place(i, h, cores, resident, far)
	}
}

// captureStranding records the far capacity that was free yet unreachable
// at a far-driven placement failure. The failure is far-driven when some
// host could take the request were far capacity reachable — then every
// free far page is by definition stranded for that request: were any
// private partition or the pool able to serve it, the policy would have
// placed. The metric is the free fraction of total far capacity, peaked
// over all such failures (a refusal with the whole fabric free scores
// 100%: maximal fragmentation). Failures the fabric cannot help (core or
// DRAM shortage on every host) don't count — idle far is not stranded far.
func (c *Cell) captureStranding(r place.Request, cands []place.Candidate) {
	if c.totalFar == 0 || r.FarPages <= 0 {
		return
	}
	farDriven := false
	for h, hs := range c.hosts {
		if cands[h].Healthy && hs.freeCores >= r.Cores && hs.freePages >= r.Pages {
			farDriven = true
			break
		}
	}
	if !farDriven {
		return
	}
	stranded := c.pool.FreePages()
	for _, hs := range c.hosts {
		stranded += hs.farFree
	}
	if frac := float64(stranded) / float64(c.totalFar); frac > c.stranded {
		c.stranded = frac
	}
}

// place charges task i's lease on host h and starts it. Pool grants are a
// write to the switch's shared DCD ledger region: a writer-epoch change
// back-invalidates the other hosts' cached ledger lines, and the grant's
// coherence cost delays the task start.
func (c *Cell) place(i, h, cores, resident, far int) {
	hs := c.hosts[h]
	hs.freeCores -= cores
	hs.freePages -= resident
	hs.load++
	l := lease{host: h, cores: cores, pages: resident}
	var delay sim.Duration
	if far > 0 {
		if far <= hs.farFree {
			hs.farFree -= far
			l.farPages = far
		} else {
			slabs := (far + c.cfg.Spec.Slab - 1) / c.cfg.Spec.Slab
			if got := c.pool.Grant(h, slabs); got != slabs {
				panic(fmt.Sprintf("fabric: cell %q granted %d/%d slabs after feasible placement", c.cfg.Name, got, slabs))
			}
			l.slabs = slabs
			hs.leasedSlabs += slabs
			c.checkLeases(h)
			delay = c.coh.Charge(c.meta, h)
		}
	}
	c.placed++
	app := c.template(i)
	spec := app.Spec
	spec.Name = fmt.Sprintf("%s/t%03d", c.cfg.Name, i)
	rt := &runningTask{lease: l}
	c.running = append(c.running, rt)
	start := func() { c.start(i, rt, spec) }
	if delay > 0 {
		c.eng.After(delay, start)
	} else {
		start()
	}
}

// start builds and runs task i on its leased host, armed for failover when
// the cell is pooled: the swap path runs under the port medium's retry
// policy and a health monitor that demotes to the host's SSD when the
// switch path dies.
func (c *Cell) start(i int, rt *runningTask, spec workload.Spec) {
	hs := c.hosts[rt.lease.host]
	ch := swap.NewChannel(c.eng, spec.Name+"-ch", 4)
	path := swap.NewPath(c.eng, hs.port, ch)
	path.Retry = true
	cfg := task.Config{
		Eng:              c.eng,
		Name:             spec.Name,
		Spec:             spec,
		Seed:             c.cfg.Seed + int64(i),
		LocalRatio:       c.cfg.LocalRatio,
		SwapPath:         path,
		GranularityPages: 32,
		AdaptiveWindow:   true,
		RefetchPenalty:   c.cfg.RefetchPenalty,
	}
	rt.t = task.New(cfg)
	if c.cfg.Pooled {
		m := faults.NewMonitor()
		m.OnUnhealthy = func() { c.demote(rt) }
		path.Health = m
	}
	rt.t.Start(func(task.Stats) { c.finish(rt) })
}

// demote live-switches a pooled task off the dead fabric path onto its
// host's SSD: far copies in pool slabs (or the private partition) are lost,
// the lease's far capacity returns to the ledger, and the task repays each
// lost page at RefetchPenalty — the PR-1 failover shape, with the switch as
// the blast radius.
func (c *Cell) demote(rt *runningTask) {
	if rt.demoted || rt.t == nil {
		return
	}
	rt.demoted = true
	hs := c.hosts[rt.lease.host]
	cost := vm.SwitchCost(hs.port.Kind(), hs.ssd.Kind())
	start := c.eng.Now()
	c.eng.After(cost, func() {
		rt.t.DropFarCopies() // counted once via Stats().LostPages at finish
		c.releaseFar(rt)
		ch := swap.NewChannel(c.eng, rt.t.SwapPath().Channel().Name()+"-demoted", 4)
		path := swap.NewPath(c.eng, hs.ssd, ch)
		path.Retry = true
		rt.t.SetSwapPath(path)
		c.demotions++
		if c.rec != nil {
			c.rec.Span("fabric/"+c.cfg.Name, "demote", start, hs.ssd.Device().Name())
		}
	})
}

// releaseFar returns a lease's far capacity. Pool reclaims write the shared
// ledger region like grants do.
func (c *Cell) releaseFar(rt *runningTask) {
	hs := c.hosts[rt.lease.host]
	if rt.lease.farPages > 0 {
		hs.farFree += rt.lease.farPages
		rt.lease.farPages = 0
	}
	if rt.lease.slabs > 0 {
		if got := c.pool.Reclaim(rt.lease.host, rt.lease.slabs); got != rt.lease.slabs {
			panic(fmt.Sprintf("fabric: cell %q reclaimed %d/%d slabs", c.cfg.Name, got, rt.lease.slabs))
		}
		hs.leasedSlabs -= rt.lease.slabs
		rt.lease.slabs = 0
		c.checkLeases(rt.lease.host)
		c.coh.Charge(c.meta, rt.lease.host)
	}
}

// finish releases task rt's lease and refills the queue.
func (c *Cell) finish(rt *runningTask) {
	hs := c.hosts[rt.lease.host]
	hs.freeCores += rt.lease.cores
	hs.freePages += rt.lease.pages
	hs.load--
	c.releaseFar(rt)
	for i, r := range c.running {
		if r == rt {
			c.running = append(c.running[:i], c.running[i+1:]...)
			break
		}
	}
	c.completed++
	c.lastDone = c.eng.Now()
	c.lost += rt.t.Stats().LostPages
	c.fill()
}

// checkLeases asserts the cross-layer residency conservation law for host h.
func (c *Cell) checkLeases(h int) {
	if !invariant.On {
		return
	}
	ckCellLeases.Assert(c.hosts[h].leasedSlabs == c.pool.Granted(h),
		"cell %q host %d leases %d slabs, pool ledger says %d",
		c.cfg.Name, h, c.hosts[h].leasedSlabs, c.pool.Granted(h))
}

// Accesses sums accesses across running tasks — the probe signal for the
// fabric-failover availability measurement.
func (c *Cell) Accesses() uint64 {
	var n uint64
	for _, rt := range c.running {
		if rt.t != nil {
			n += rt.t.Stats().Accesses
		}
	}
	return n
}

// Demotions reports fabric-failover switches so far.
func (c *Cell) Demotions() int { return c.demotions }

// Run drives the engine until the cell drains and returns the result.
func (c *Cell) Run() Result {
	c.eng.Run()
	return c.Result()
}

// Result snapshots the cell's outcome counters. Lost pages include tasks
// still in flight, so a snapshot mid-horizon (the failover experiments cut
// the run at a fixed observation window) sees demotion losses.
func (c *Cell) Result() Result {
	lost := c.lost
	for _, rt := range c.running {
		if rt.t != nil {
			lost += rt.t.Stats().LostPages
		}
	}
	return Result{
		Placed:        c.placed,
		Refused:       c.refused,
		Completed:     c.completed,
		Makespan:      sim.Duration(c.lastDone),
		StrandedFrac:  c.stranded,
		PoolGrants:    c.pool.Grants,
		WriterEpochs:  c.coh.TotalEpochs(),
		CoherenceCost: c.coh.TotalCost(),
		LostPages:     lost,
	}
}
