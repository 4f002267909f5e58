// Package task executes a synthetic workload stream against the simulated
// memory subsystem: it walks the access trace, touches resident pages at
// NUMA latency, takes minor faults for first-touch allocations, takes major
// faults through a swap path for far-memory pages, runs cgroup-driven
// reclaim with asynchronous write-back, and accounts user time and kernel
// (sys) time separately — the paper evaluates swap performance by sys time.
//
// Code that starts many short tasks on one engine builds them through a
// Pool, which recycles a finished task's storage for the next one. Such a
// task belongs to the pool once its done callback fires: its owner must not
// touch it after done. New builds unpooled tasks, which stay readable after
// done.
package task

import (
	"fmt"

	"repro/internal/invariant"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/swap"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Registered invariants for the fault/reclaim path. The cgroup law: after
// reclaim makes room and a fetch extent is installed, the resident count
// never exceeds the cgroup limit. The conservation law: every page flagged
// as having a current far copy owns exactly one live swap slot, so the
// flagged count and the allocator's live count always agree — pages are
// never duplicated or leaked between local memory and the swap device.
var (
	ckCgroupLimit = invariant.Register("task.cgroup.resident-within-limit")
	ckFarCopies   = invariant.Register("task.far-copies.match-live-slots")
)

// Kernel cost constants for the fault and reclaim paths.
const (
	// minorFaultCost is a zero-fill first-touch anonymous fault.
	minorFaultCost = 600 * sim.Nanosecond
	// reclaimPerPage is the CPU cost of unmapping + LRU bookkeeping per
	// reclaimed page.
	reclaimPerPage = 250 * sim.Nanosecond
	// maxOutstandingWritebacks bounds in-flight write-back extents per task,
	// modeling the kernel's dirty throttling.
	maxOutstandingWritebacks = 32
	// fileReadaheadPages is the file-refault readahead window.
	fileReadaheadPages = 16
)

// Config assembles everything a task run needs.
type Config struct {
	Eng  *sim.Engine
	Name string

	// Spec and Seed define the workload; the stream is created internally.
	Spec workload.Spec
	Seed int64

	// LocalRatio is the cgroup's resident share of the footprint (1 - far
	// memory ratio). The paper sweeps this between 0.1 and 1.0.
	LocalRatio float64

	// SwapPath carries anonymous pages to/from far memory.
	SwapPath *swap.Path
	// FilePath carries file-backed pages to/from their backing store
	// (normally the node's SSD, regardless of the swap backend).
	FilePath *swap.Path

	// GranularityPages is the swap-in transfer unit in pages (1 = plain 4K,
	// 512 = THP-like 2M extents). Clamped to at least 1.
	GranularityPages int
	// AdaptiveWindow makes the reader fetch the full granularity only on
	// faults that continue a sequential run; isolated random faults fetch an
	// aligned cluster of RandomWindowPages instead. The kernel's swap
	// readahead lacks this check (it reads the whole cluster
	// unconditionally), which is part of what the paper's per-path
	// granularity configuration fixes.
	AdaptiveWindow bool
	// RandomWindowPages is the adaptive reader's cluster size for
	// non-sequential faults (default 1). High-latency media keep a small
	// cluster — spatial locality still amortizes the operation cost.
	RandomWindowPages int

	// Topo and NUMAPolicy control local page placement. Topo may be nil, in
	// which case an unconstrained single-node topology is built.
	Topo       *mem.Topology
	NUMAPolicy mem.NUMAPolicy

	// Sources, when non-nil, replaces the spec-derived access streams: one
	// source per thread (Threads is then ignored). Used for phased
	// workloads and custom traces.
	Sources []workload.AccessSource

	// Trace, when non-nil, observes every access (the page trace table).
	Trace *trace.Table

	// EpochAccesses, when > 0, invokes OnEpoch every that many main-phase
	// accesses — the hook xDM's console uses for online retuning.
	EpochAccesses int
	OnEpoch       func(t *Task)

	// RefetchPenalty is the extra per-page cost of re-materializing a page
	// whose far-memory copy was lost to a backend failure (DropFarCopies):
	// restoring from a replica, a checkpoint, or recomputation. Zero means
	// lost pages refault as plain zero-fill.
	RefetchPenalty sim.Duration
}

// Stats is the outcome of one task run.
type Stats struct {
	Runtime  sim.Duration
	UserTime sim.Duration
	SysTime  sim.Duration

	Accesses       uint64
	MinorFaults    uint64
	MajorFaults    uint64
	FileRefaults   uint64
	PrefetchHits   uint64
	ReclaimedPages uint64
	PagesIn        uint64
	PagesOut       uint64

	// Failure accounting.
	LostPages    uint64 // far copies dropped by DropFarCopies
	LostRefaults uint64 // lost pages re-materialized at RefetchPenalty
}

// BytesSwapped reports total swap traffic in bytes.
func (s Stats) BytesSwapped() float64 {
	return float64(s.PagesIn+s.PagesOut) * 4096
}

// worker is one execution thread of a task: its own access source and
// sequential-fault detector, sharing the task's address space.
//
// A worker has at most one fault outstanding, so the fault's state lives in
// the worker and its continuations are bound once, in newWorker. They reach
// the task through the storage's owner, so a pooled worker serves each task
// that reuses it.
type worker struct {
	stream    workload.AccessSource
	lastFault int32
	// own is the spec-derived stream the worker resets for each task that
	// has no Config.Sources.
	own *workload.Stream

	// The outstanding fault: the access that faulted and, for a major
	// fault, the fetched extent's page count, kind and start time.
	access     workload.Access
	fetched    int
	anon       bool
	faultStart sim.Time

	runFn    func()
	exitFn   func()
	faultFn  func()
	minorFn  func()
	swapInFn func(lat sim.Duration)
}

func (st *storage) newWorker() *worker {
	w := &worker{own: new(workload.Stream)}
	w.runFn = func() { st.owner.run(w) }
	w.exitFn = func() { st.owner.workerDone() }
	w.faultFn = func() { st.owner.fault(w) }
	w.minorFn = func() { st.owner.minorDone(w) }
	w.swapInFn = func(sim.Duration) { st.owner.swapInDone(w) }
	return w
}

// reset starts the worker over on access source src.
func (w *worker) reset(src workload.AccessSource) {
	w.stream, w.lastFault = src, -2
	w.access, w.fetched, w.anon, w.faultStart = workload.Access{}, 0, false, 0
}

// storage is the part of a task a Pool recycles: everything sized by the
// footprint or the thread count, the fault and reclaim scratch, and the
// write-back queue and token pool. Its callbacks are bound once and reach
// the task it currently serves through owner.
type storage struct {
	owner *Task

	ps mem.PageSet
	// slots is the swap device's slot space. Kernel readahead reads *slot*
	// neighborhoods, which only coincide with address neighborhoods when
	// one thread evicts sequentially.
	slots swap.SlotAllocator
	// topo is the unconstrained topology of a task without Config.Topo.
	topo mem.Topology

	// slotValid marks anonymous pages whose far-memory copy is current.
	slotValid []bool
	// prefetched marks resident pages brought in by readahead, not demand.
	prefetched []bool
	// lost marks pages whose far copy died with a backend; their next
	// fault pays RefetchPenalty on top of the zero-fill cost.
	lost []bool

	// workers are the task's threads.
	workers []*worker

	// fetch is the fault path's extent scratch; swapWB and fileWB are
	// reclaim's write-back lists.
	fetch, swapWB, fileWB []int32

	// wbTokens throttles write-back. wbQueue[wbHead:] holds the extents
	// waiting for a token, in the order the tokens will be granted.
	wbTokens  *sim.Resource
	wbQueue   []wbPending
	wbHead    int
	wbGrantFn func()
	wbDoneFn  func(sim.Duration)
}

// wbPending is a write-back extent waiting for a token.
type wbPending struct {
	path  *swap.Path
	pages int
}

// clearedBools returns b resized to n and cleared, reusing its array.
func clearedBools(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	b = b[:n]
	clear(b)
	return b
}

// Pool is a free list of task storage, held by code that starts many tasks
// on one engine (an arena shard, a serving run). A pooled task hands its
// storage back once it has finished and its last write-back has completed;
// the next task the pool builds resets and reuses it. A pool serves one
// engine and is not safe for concurrent use. The zero value is an empty
// pool.
type Pool struct {
	eng  *sim.Engine
	free []*storage
}

// get pops recycled storage, or builds fresh storage when the pool is nil
// or empty.
func (p *Pool) get(eng *sim.Engine) *storage {
	if p != nil {
		if p.eng == nil {
			p.eng = eng
		} else if p.eng != eng {
			panic("task: pool shared across engines")
		}
		if n := len(p.free); n > 0 {
			st := p.free[n-1]
			p.free[n-1] = nil
			p.free = p.free[:n-1]
			return st
		}
	}
	st := &storage{wbTokens: sim.NewResource(eng, maxOutstandingWritebacks)}
	st.wbGrantFn = func() { st.owner.wbGrant() }
	st.wbDoneFn = func(sim.Duration) { st.owner.wbDone() }
	return st
}

// Task is one running workload instance, possibly multi-threaded
// (Spec.Threads): worker threads share the page set, cgroup, and swap path,
// and their faults overlap — which is what loads multiple backend channels
// concurrently.
type Task struct {
	cfg     Config
	eng     *sim.Engine
	running int
	cg      *mem.Cgroup
	topo    *mem.Topology

	granularity int

	// storage holds the memory state; a pooled task hands it back to pool
	// after finishing, and it is nil from then on.
	*storage
	pool *Pool

	// farCopies counts pages with slotValid set, for the O(1) conservation
	// check against the slot allocator's live count.
	farCopies int

	sinceEpoch int
	start      sim.Time
	stats      Stats
	started    bool
	done       func(Stats)
	finished   bool

	// Observability handle, resolved once at construction (nil when off).
	rec         *obs.Recorder
	track       string
	obsResident *metrics.BucketTimeline
	obsFar      *metrics.BucketTimeline
}

// New builds an unpooled task from cfg: (*Pool)(nil).New(cfg).
func New(cfg Config) *Task { return (*Pool)(nil).New(cfg) }

// New builds a task from cfg, reusing storage a finished task of this pool
// handed back. The page set's file-backed range is the first
// (1-AnonFraction) of the footprint, matching the workload generators.
//
// The caller must not touch the task after its done callback fires: its
// storage may by then belong to the next task. A nil pool builds an
// unpooled task, which keeps its storage and stays readable after done.
func (p *Pool) New(cfg Config) *Task {
	if cfg.Eng == nil {
		panic("task: nil engine")
	}
	if cfg.SwapPath == nil {
		panic("task: nil swap path")
	}
	if cfg.GranularityPages < 1 {
		cfg.GranularityPages = 1
	}
	if cfg.RandomWindowPages < 1 {
		cfg.RandomWindowPages = 1
	}
	if cfg.FilePath == nil {
		cfg.FilePath = cfg.SwapPath
	}
	n := cfg.Spec.FootprintPages
	st := p.get(cfg.Eng)
	st.ps.Reset(n)
	filePages := int32(float64(n) * (1 - cfg.Spec.AnonFraction))
	st.ps.SetType(0, filePages, mem.FileBacked)
	st.slots.Reset(n)
	st.slotValid = clearedBools(st.slotValid, n)
	st.prefetched = clearedBools(st.prefetched, n)
	st.lost = clearedBools(st.lost, n)

	topo := cfg.Topo
	if topo == nil {
		st.topo.Reset(n + 1) // unconstrained
		topo = &st.topo
	}

	threads := cfg.Spec.Threads
	if threads < 1 {
		threads = 1
	}
	t := &Task{
		cfg:         cfg,
		eng:         cfg.Eng,
		cg:          mem.NewCgroupRatio(&st.ps, cfg.LocalRatio),
		topo:        topo,
		granularity: cfg.GranularityPages,
		storage:     st,
		pool:        p,
	}
	st.owner = t
	if obs.On {
		if r := obs.Rec(cfg.Eng); r != nil {
			t.rec = r
			name := cfg.Name
			if name == "" {
				name = "task"
			}
			t.track = "task/" + name
			t.obsResident = r.Timeline(t.track+"/resident", obs.ModeMean)
			t.obsFar = r.Timeline(t.track+"/far-copies", obs.ModeMean)
			r.OnSeal(func() {
				r.Counter(t.track + "/accesses").Add(float64(t.stats.Accesses))
				r.Counter(t.track + "/major-faults").Add(float64(t.stats.MajorFaults))
				r.Counter(t.track + "/minor-faults").Add(float64(t.stats.MinorFaults))
				r.Counter(t.track + "/pages-in").Add(float64(t.stats.PagesIn))
				r.Counter(t.track + "/pages-out").Add(float64(t.stats.PagesOut))
				r.Counter(t.track + "/reclaimed").Add(float64(t.stats.ReclaimedPages))
				r.Counter(t.track + "/lost-pages").Add(float64(t.stats.LostPages))
				r.Gauge(t.track + "/cgroup-limit-pages").Set(float64(t.cg.LimitPages))
			})
		}
	}
	if len(cfg.Sources) > 0 {
		st.setWorkers(len(cfg.Sources))
		for i, src := range cfg.Sources {
			st.workers[i].reset(src)
		}
		return t
	}
	per := cfg.Spec.MainAccesses / threads
	if per < 1 {
		per = 1
	}
	st.setWorkers(threads)
	for i, w := range st.workers {
		w.own.Reset(cfg.Spec, cfg.Seed+int64(i)*7919)
		w.own.SetMainAccesses(per)
		if i > 0 {
			// Thread 0 performs the allocation sweep for the shared space.
			w.own.SkipInit()
		}
		w.reset(w.own)
	}
	return t
}

// setWorkers sizes the worker list to n, keeping the workers earlier tasks
// built.
func (st *storage) setWorkers(n int) {
	if cap(st.workers) < n {
		st.workers = append(st.workers[:cap(st.workers)], make([]*worker, n-cap(st.workers))...)
	}
	st.workers = st.workers[:n]
	for i, w := range st.workers {
		if w == nil {
			st.workers[i] = st.newWorker()
		}
	}
}

// Cgroup exposes the task's memory limit.
func (t *Task) Cgroup() *mem.Cgroup { return t.cg }

// SwapPath exposes the task's current swap path.
func (t *Task) SwapPath() *swap.Path { return t.cfg.SwapPath }

// SetGranularity retunes the swap-in unit online.
func (t *Task) SetGranularity(pages int) {
	if pages < 1 {
		pages = 1
	}
	t.granularity = pages
}

// SetSwapPath switches the task to a different far-memory path. Pages whose
// far-memory copy lives on the old backend are re-fetched from the new one
// in this model; the backend switch machinery (internal/vm) accounts for the
// migration cost.
func (t *Task) SetSwapPath(p *swap.Path) { t.cfg.SwapPath = p }

// DropFarCopies invalidates every far-memory copy the task holds — the
// backend that stored them died. Swap slots are reclaimed exactly once
// (SlotAllocator.DropAll) and each lost page is marked so its next fault
// pays Config.RefetchPenalty on top of the zero-fill cost. It returns the
// number of far copies dropped. The failover controller calls this when
// live-switching away from a failed backend.
func (t *Task) DropFarCopies() int {
	n := 0
	for id := range t.slotValid {
		if t.slotValid[id] {
			t.slotValid[id] = false
			t.lost[id] = true
			n++
		}
	}
	t.slots.DropAll()
	t.farCopies = 0
	if invariant.On {
		ckFarCopies.Assert(t.slots.Live() == 0,
			"%d live slots after dropping all far copies", t.slots.Live())
	}
	t.stats.LostPages += uint64(n)
	if t.rec != nil {
		t.rec.Instant(t.track, "drop-far-copies", fmt.Sprintf("dropped=%d", n))
		t.obsFar.Add(t.eng.Now(), 0)
	}
	return n
}

// AuditConservation runs the O(n) structural audits over the task's memory
// state: the LRU lists (mem.PageSet.Audit), the slot allocator bijection
// (swap.SlotAllocator.Audit), and the cross-structure conservation laws —
// far-copy flags match live slots one-to-one, and no page is simultaneously
// resident and flagged lost. For tests and the metamorphic suite.
func (t *Task) AuditConservation() error {
	if err := t.ps.Audit(); err != nil {
		return err
	}
	if err := t.slots.Audit(); err != nil {
		return err
	}
	far := 0
	for id, valid := range t.slotValid {
		if !valid {
			continue
		}
		far++
		if t.lost[id] {
			return fmt.Errorf("task audit: page %d both holds a far copy and is marked lost", id)
		}
	}
	if far != t.farCopies {
		return fmt.Errorf("task audit: farCopies counter %d, recount %d", t.farCopies, far)
	}
	if far != t.slots.Live() {
		return fmt.Errorf("task audit: %d far copies but %d live slots", far, t.slots.Live())
	}
	return nil
}

// Stats reports the task's statistics so far.
func (t *Task) Stats() Stats { return t.stats }

// Start begins execution; done fires once with final stats when the stream
// is exhausted.
func (t *Task) Start(done func(Stats)) {
	if t.started {
		panic(fmt.Sprintf("task %s: started twice", t.cfg.Name))
	}
	t.started = true
	t.done = done
	t.start = t.eng.Now()
	t.running = len(t.workers)
	for _, w := range t.workers {
		t.eng.Immediately(w.runFn)
	}
}

// run consumes one worker's accesses until its next fault (or the end of
// its stream), accumulating resident-access time arithmetically and
// scheduling a single event for the batch.
func (t *Task) run(w *worker) {
	var pending sim.Duration
	for {
		a, ok := w.stream.Next()
		if !ok {
			t.eng.After(pending, w.exitFn)
			return
		}
		t.observe(a)
		pending += t.cfg.Spec.ComputePerAccess
		t.stats.UserTime += t.cfg.Spec.ComputePerAccess
		t.stats.Accesses++

		if t.ps.Page(a.Page).Resident {
			lat := t.topo.AccessLatency(t.ps.Page(a.Page).Node)
			pending += lat
			t.stats.UserTime += lat
			if t.prefetched[a.Page] {
				t.prefetched[a.Page] = false
				t.stats.PrefetchHits++
			}
			t.ps.Touch(a.Page, a.Write)
			continue
		}
		// Fault: advance by the accumulated compute, then handle it.
		w.access = a
		t.eng.After(pending, w.faultFn)
		return
	}
}

// workerDone retires one worker; the task finishes when all have.
func (t *Task) workerDone() {
	t.running--
	if t.running == 0 {
		t.finish()
	}
}

func (t *Task) observe(a workload.Access) {
	if t.cfg.Trace != nil {
		t.cfg.Trace.Record(a.Page, a.Write)
	}
	if t.cfg.EpochAccesses > 0 && t.cfg.OnEpoch != nil {
		t.sinceEpoch++
		if t.sinceEpoch >= t.cfg.EpochAccesses {
			t.sinceEpoch = 0
			t.cfg.OnEpoch(t)
		}
	}
}

// fault handles the worker's outstanding page fault, then resumes the
// worker.
func (t *Task) fault(w *worker) {
	a := w.access
	page := t.ps.Page(a.Page)
	anon := page.Type == mem.Anonymous

	if page.Resident {
		// Another worker faulted this page in while we were advancing the
		// clock; just touch and continue.
		t.ps.Touch(a.Page, a.Write)
		t.run(w)
		return
	}

	if anon && !t.slotValid[a.Page] {
		// Zero-fill minor fault: no far-memory read. A page whose far copy
		// died with its backend additionally pays the re-fetch penalty
		// (replica read / recomputation) the first time it is touched again.
		cost := minorFaultCost
		if t.lost[a.Page] {
			t.lost[a.Page] = false
			cost += t.cfg.RefetchPenalty
			t.stats.LostRefaults++
		}
		t.reclaimFor(1)
		t.makeResident(a.Page, false)
		if invariant.On {
			ckCgroupLimit.Assert(t.ps.Resident() <= t.cg.LimitPages,
				"%d resident over limit %d after minor fault", t.ps.Resident(), t.cg.LimitPages)
		}
		t.stats.MinorFaults++
		t.stats.SysTime += cost
		t.eng.After(cost, w.minorFn)
		return
	}

	// Major fault: assemble the fetch extent. An adaptive reader spends the
	// full window only on faults continuing a sequential pattern.
	seqFault := a.Page >= w.lastFault && a.Page <= w.lastFault+4
	var fetch []int32
	var path *swap.Path
	if anon {
		wantAnon := func(id int32) bool {
			p := t.ps.Page(id)
			return p.Type == mem.Anonymous && !p.Resident && t.slotValid[id]
		}
		if t.cfg.AdaptiveWindow {
			// xDM's reader works in address space: stream forward on
			// sequential faults, small aligned cluster on isolated ones.
			g, aligned := t.granularity, false
			if !seqFault {
				if g > t.cfg.RandomWindowPages {
					g = t.cfg.RandomWindowPages
				}
				aligned = true
			}
			fetch = t.planExtent(a.Page, g, aligned, wantAnon)
		} else {
			// Kernel swap readahead reads the slot cluster around the
			// faulting entry, whatever pages those slots hold.
			fetch = t.slots.Cluster(t.fetch[:0], a.Page, t.granularity, wantAnon)
			t.fetch = fetch
		}
		path = t.cfg.SwapPath
	} else {
		fetch = t.planExtent(a.Page, fileReadaheadPages, true, func(id int32) bool {
			p := t.ps.Page(id)
			return p.Type == mem.FileBacked && !p.Resident
		})
		path = t.cfg.FilePath
	}

	sequential := a.Page == w.lastFault+1 || contiguous(fetch)
	w.lastFault = fetch[len(fetch)-1]

	t.reclaimFor(len(fetch))
	for _, id := range fetch {
		t.makeResident(id, id != a.Page)
	}
	if invariant.On {
		ckCgroupLimit.Assert(t.ps.Resident() <= t.cg.LimitPages ||
			t.ps.Resident() <= len(fetch),
			"%d resident over limit %d after installing %d-page extent",
			t.ps.Resident(), t.cg.LimitPages, len(fetch))
	}

	w.fetched, w.anon, w.faultStart = len(fetch), anon, t.eng.Now()
	path.SwapIn(swap.Extent{Pages: len(fetch), Sequential: sequential}, w.swapInFn)
}

// minorDone resumes the worker after a zero-fill fault.
func (t *Task) minorDone(w *worker) {
	a := w.access
	// Another worker's reclaim may have evicted the page during the fault
	// window; it will simply refault on next access.
	if t.ps.Page(a.Page).Resident {
		t.ps.Touch(a.Page, a.Write)
	}
	t.run(w)
}

// swapInDone resumes the worker once a major fault's extent arrived.
func (t *Task) swapInDone(w *worker) {
	a := w.access
	t.stats.MajorFaults++
	if w.anon {
		t.stats.PagesIn += uint64(w.fetched)
	} else {
		t.stats.FileRefaults++
	}
	t.stats.SysTime += t.eng.Now().Sub(w.faultStart)
	if t.ps.Page(a.Page).Resident {
		t.ps.Touch(a.Page, a.Write)
	}
	t.run(w)
}

// planExtent collects up to max pages eligible per want, always including
// the faulting page first. The window is either aligned around the fault
// (kernel slot-cluster readahead) or forward-looking (xDM). The returned
// slice is the task's fetch scratch, valid until the next fault.
func (t *Task) planExtent(page int32, max int, aligned bool, want func(int32) bool) []int32 {
	if max < 1 {
		max = 1
	}
	// Never fetch more than half the cgroup budget in one extent.
	if budget := t.cg.LimitPages / 2; max > budget && budget >= 1 {
		max = budget
	}
	base := page
	if aligned {
		base = page - page%int32(max)
	}
	end := base + int32(max)
	if end > int32(t.ps.Len()) {
		end = int32(t.ps.Len())
	}
	fetch := append(t.fetch[:0], page)
	for id := base; id < end && len(fetch) < max; id++ {
		if id != page && want(id) {
			fetch = append(fetch, id)
		}
	}
	t.fetch = fetch
	return fetch
}

func contiguous(ids []int32) bool {
	if len(ids) < 2 {
		return false
	}
	lo, hi := ids[0], ids[0]
	for _, id := range ids[1:] {
		if id < lo {
			lo = id
		}
		if id > hi {
			hi = id
		}
	}
	return int(hi-lo) == len(ids)-1
}

// makeResident allocates a NUMA node and installs the page.
func (t *Task) makeResident(id int32, viaPrefetch bool) {
	node := t.topo.Allocate(t.cfg.NUMAPolicy)
	if node < 0 {
		// Topology exhausted: reclaim one page and retry once.
		t.reclaimPages(1)
		node = t.topo.Allocate(t.cfg.NUMAPolicy)
		if node < 0 {
			panic("task: NUMA topology smaller than cgroup limit")
		}
	}
	t.ps.MakeResident(id, node)
	t.prefetched[id] = viaPrefetch
	if t.obsResident != nil {
		t.obsResident.Add(t.eng.Now(), float64(t.ps.Resident()))
	}
}

// reclaimFor evicts enough pages that incoming more pages fit the cgroup.
func (t *Task) reclaimFor(incoming int) {
	over := t.ps.Resident() + incoming - t.cg.LimitPages
	if over > 0 {
		t.reclaimPages(over)
	}
}

// reclaimPages evicts n coldest pages, submitting asynchronous write-back
// extents for dirty anonymous (swap) and dirty file (storage) pages.
func (t *Task) reclaimPages(n int) {
	swapWB, fileWB := t.swapWB[:0], t.fileWB[:0]
	for i := 0; i < n; i++ {
		id := t.ps.ReclaimCandidate()
		if id < 0 {
			break
		}
		page := t.ps.Page(id)
		anon := page.Type == mem.Anonymous
		node := page.Node
		dirty := t.ps.Evict(id)
		t.topo.Release(node)
		t.prefetched[id] = false
		t.stats.ReclaimedPages++
		t.stats.SysTime += reclaimPerPage
		if anon {
			if dirty {
				if !t.slotValid[id] {
					t.slotValid[id] = true
					t.farCopies++
				}
				t.slots.Assign(id)
				swapWB = append(swapWB, id)
			}
			// Clean anonymous pages with a valid slot are dropped for free.
		} else if dirty {
			fileWB = append(fileWB, id)
		}
	}
	if invariant.On {
		ckFarCopies.Assert(t.farCopies == t.slots.Live(),
			"%d pages flagged with far copies but %d live slots", t.farCopies, t.slots.Live())
	}
	if t.obsFar != nil {
		now := t.eng.Now()
		t.obsFar.Add(now, float64(t.farCopies))
		t.obsResident.Add(now, float64(t.ps.Resident()))
	}
	t.swapWB, t.fileWB = swapWB, fileWB
	t.writeback(t.cfg.SwapPath, swapWB)
	t.writeback(t.cfg.FilePath, fileWB)
}

// writeback submits dirty pages as contiguous extents, asynchronously,
// throttled by the write-back token pool.
func (t *Task) writeback(path *swap.Path, ids []int32) {
	if len(ids) == 0 {
		return
	}
	// ids arrive in reclaim (LRU) order; group ascending contiguous runs.
	runStart := 0
	for i := 1; i <= len(ids); i++ {
		if i < len(ids) && ids[i] == ids[i-1]+1 {
			continue
		}
		pages := i - runStart
		t.wbQueue = append(t.wbQueue, wbPending{path: path, pages: pages})
		t.wbTokens.Acquire(t.wbGrantFn)
		t.stats.PagesOut += uint64(pages)
		runStart = i
	}
}

// wbGrant starts the oldest write-back waiting for a token. The token pool
// grants strictly in request order, so each grant takes the queue head.
func (t *Task) wbGrant() {
	w := t.wbQueue[t.wbHead]
	t.wbQueue[t.wbHead] = wbPending{}
	t.wbHead++
	if t.wbHead == len(t.wbQueue) {
		t.wbQueue, t.wbHead = t.wbQueue[:0], 0
	} else if t.wbHead > 32 && t.wbHead*2 >= len(t.wbQueue) {
		n := copy(t.wbQueue, t.wbQueue[t.wbHead:])
		clear(t.wbQueue[n:])
		t.wbQueue, t.wbHead = t.wbQueue[:n], 0
	}
	w.path.SwapOut(swap.Extent{Pages: w.pages, Sequential: w.pages > 1}, t.wbDoneFn)
}

// wbDone returns a completed write-back's token.
func (t *Task) wbDone() {
	t.wbTokens.Release()
	if t.finished {
		t.recycle()
	}
}

func (t *Task) finish() {
	if t.finished {
		return
	}
	t.finished = true
	t.stats.Runtime = t.eng.Now().Sub(t.start)
	if t.rec != nil {
		t.rec.Span(t.track, "run", t.start, "")
	}
	t.recycle()
	if t.done != nil {
		t.done(t.stats)
	}
}

// recycle hands a finished pooled task's storage back to its pool once no
// write-back is waiting for a token or in flight, so no callback can touch
// the storage any more. A write-back that completes after finish calls it
// again.
func (t *Task) recycle() {
	if t.pool == nil || t.wbTokens.InUse() > 0 || t.wbTokens.Waiting() > 0 {
		return
	}
	t.pool.free = append(t.pool.free, t.storage)
	t.storage = nil
}
