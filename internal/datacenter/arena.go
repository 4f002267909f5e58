package datacenter

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/cluster"
	"repro/internal/device"
	"repro/internal/pcie"
	"repro/internal/place"
	"repro/internal/sim"
	"repro/internal/swap"
	"repro/internal/task"
	"repro/internal/vm"
	"repro/internal/workload"
)

// The Arena is the scale tier above Cluster: thousands of server nodes and
// one cluster dispatcher, partitioned across the parallel-in-time kernel's
// shards (sim.Shards). Cluster models a rack whose nodes share one fabric
// and one engine; the Arena models a fleet whose nodes interact only through
// the dispatcher, which is exactly the shape conservative-lookahead sharding
// wants: every cross-domain interaction is a placement RPC or a completion
// report with a real network latency floor, and that floor is the lookahead.
//
// Domain partitioning. Each shard's sub-engine owns a disjoint set of nodes
// — a node's machine, devices, swap paths, and running tasks all live on its
// shard and are touched only by events there. The dispatcher lives on shard
// 0 (alongside that shard's nodes) and keeps a cached resource ledger
// (place.Ledger); it never reads node state directly, so no shard ever
// reaches across a domain boundary.
//
// Lookahead derivation. Dispatcher→node placement and node→dispatcher
// reports both cross the cluster network: ArenaRPCLatency is their floor,
// and therefore the group's lookahead. Everything else is node-local.
//
// Determinism. Dispatch messages carry keys from the dispatcher's monotone
// counter; report messages carry (nodeID, per-node counter) keys. Both are
// functions of model identity only, so delivery order — and with it every
// result, trace, and metric — is byte-identical for any shard count and any
// worker count (see sim.Shards).
type Arena struct {
	cfg    ArenaConfig
	shards *sim.Shards
	sched  *arenaSched
	nodes  []*arenaNode
	pol    *place.Policy
	// pools recycle task storage, one per shard engine.
	pools []task.Pool
}

// ArenaRPCLatency is the dispatcher↔node network latency floor (one
// cross-rack RPC), and therefore the shard group's conservative lookahead.
const ArenaRPCLatency = 200 * sim.Microsecond

// arenaLocalRatio is each arena task's resident share of its footprint.
const arenaLocalRatio = 0.5

// ArenaConfig sizes an arena run.
type ArenaConfig struct {
	// Nodes is the fleet size; Shards partitions it (1 = serial execution);
	// ShardWorkers drives the windows (values < 2 run serially).
	Nodes        int
	Shards       int
	ShardWorkers int

	CoresPerNode int
	PagesPerNode int

	// XDM selects per-node multi-backend far memory (ssd+rdma+dram, least
	// loaded backend per task, isolated bypass paths). Off = static
	// single-backend: every task swaps to the node SSD through the shared
	// hierarchical path.
	XDM bool

	// Templates are the task shapes, cycled by arrival index.
	Templates []cluster.App

	// Tasks, when > 0, runs closed-loop: that many tasks are submitted to
	// the dispatcher at t=0 and the run ends when all complete.
	Tasks int

	// Arrivals, when non-nil, runs open-loop over Duration (+ Drain to let
	// admitted work finish); the dispatcher's pending queue holds at most
	// 4 × Nodes tasks and refuses arrivals beyond that; SLO judges
	// placement delay.
	Arrivals workload.ArrivalProcess
	Duration sim.Duration
	Drain    sim.Duration
	SLO      sim.Duration

	// Policy selects the dispatcher's placement policy (see internal/place);
	// nil keeps the arena default, worst-fit spreading (most free cores
	// wins, free pages break ties, then the lowest node index). A one-shot
	// policy refuses tasks that fail to place instead of queueing them for
	// retry; an oversubscribing policy extends every node's page ledger by
	// the policy's overcommit slack.
	Policy *place.Policy

	Seed int64
}

// ArenaResult is one arena run's outcome. Every field is a deterministic
// simulation quantity, byte-identical across shard and worker counts.
type ArenaResult struct {
	Offered   int
	Refused   int // open-loop arrivals bounced off the full queue
	Completed int
	InSLO     int // completions whose placement delay met cfg.SLO
	InFlight  int // open-loop work still unfinished at the horizon

	// Makespan is the dispatcher-observed completion time of the last task
	// (closed-loop) or the configured horizon (open-loop).
	Makespan sim.Duration

	// Placement delay (arrival → task start on its node) distribution.
	DelayP50, DelayP95, DelayP99 sim.Duration

	// MaxQueue is the dispatcher queue's high-water mark.
	MaxQueue int

	// MBE is memory balance effectiveness over the fleet's peak
	// utilizations (alpha 0.3, beta 0.7).
	MBE float64

	// StrandedFrac is the run's peak memory-stranding fraction: free pages
	// sitting on core-exhausted nodes (provisioned but unreachable for the
	// task at the queue head), measured at every placement failure, over
	// the fleet's page capacity.
	StrandedFrac float64

	// LastDone is the dispatcher-observed completion time of the last task
	// — equal to Makespan in closed-loop runs, and the true finish line in
	// open-loop runs (Makespan there is the configured horizon).
	LastDone sim.Duration

	// Events is the total event count across all sub-engines — a
	// deterministic proxy for simulation size.
	Events uint64
}

// arenaNode is one server: a machine on its shard's engine plus its
// running-task counts per backend. All fields are touched only by events on
// the node's shard.
type arenaNode struct {
	id      int
	shard   int
	machine *vm.Machine

	perBackend map[string]int // running tasks per backend (XDM spreading)
	filePath   *swap.Path
	msgSeq     uint64 // report key counter
}

// arenaSched is the dispatcher: cached ledger, FIFO queue, delay accounting.
// All fields are touched only by events on shard 0.
type arenaSched struct {
	ledger  *place.Ledger
	queue   []arenaTask
	dispSeq uint64 // dispatch key counter

	offered, refused, completed, inSLO int
	maxQueue                           int
	lastDone                           sim.Time
	peakStranded                       int
	delays                             []sim.Duration
}

// arenaTask is one unit of work moving through the dispatcher.
type arenaTask struct {
	id      int
	app     cluster.App
	pages   int
	arrived sim.Time
}

// NewArena builds the fleet. Node i lives on shard i mod Shards; the
// dispatcher lives on shard 0.
func NewArena(cfg ArenaConfig) *Arena {
	if cfg.Nodes <= 0 {
		panic("datacenter: arena needs at least one node")
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.ShardWorkers < 1 {
		cfg.ShardWorkers = 1
	}
	if len(cfg.Templates) == 0 {
		panic("datacenter: arena needs task templates")
	}
	pol := cfg.Policy
	if pol == nil {
		pol = defaultArenaPolicy
	}
	a := &Arena{
		cfg:    cfg,
		shards: sim.NewShards(cfg.Shards, ArenaRPCLatency),
		pol:    pol,
		pools:  make([]task.Pool, cfg.Shards),
		sched: &arenaSched{
			ledger: place.NewLedger(cfg.Nodes, cfg.CoresPerNode, cfg.PagesPerNode, pol.Overcommit),
		},
	}
	for i := 0; i < cfg.Nodes; i++ {
		shard := i % cfg.Shards
		eng := a.shards.Engine(shard)
		m := vm.NewMachine(eng, pcie.Gen4, 16, cfg.CoresPerNode, cfg.PagesPerNode)
		// Device names are globally unique (n0007.ssd) so observability
		// signatures stay canonical when many nodes share one engine — or
		// one engine hosts the whole fleet at Shards=1.
		ssd := fmt.Sprintf("n%04d.ssd", i)
		m.AttachDevice(device.SpecTestbedSSD(ssd))
		if cfg.XDM {
			m.AttachDevice(device.SpecConnectX5(fmt.Sprintf("n%04d.rdma", i)))
			m.AttachDevice(device.SpecRemoteDRAM(fmt.Sprintf("n%04d.dram", i)))
		}
		n := &arenaNode{
			id:         i,
			shard:      shard,
			machine:    m,
			perBackend: make(map[string]int),
		}
		n.filePath = swap.NewPath(eng, m.Backend(ssd), swap.NewChannel(eng, ssd+".file", 8))
		a.nodes = append(a.nodes, n)
	}
	return a
}

// Run executes the arena to completion (closed-loop) or to the configured
// horizon (open-loop) and reports the outcome.
func (a *Arena) Run() ArenaResult {
	cfg := a.cfg
	switch {
	case cfg.Arrivals != nil:
		a.startOpenLoop()
		a.shards.RunUntil(sim.Time(0).Add(cfg.Duration+cfg.Drain), cfg.ShardWorkers)
	case cfg.Tasks > 0:
		a.startClosedLoop()
		a.shards.Run(cfg.ShardWorkers)
	default:
		panic("datacenter: arena needs Tasks (closed-loop) or Arrivals (open-loop)")
	}
	return a.result()
}

// startClosedLoop queues every task at t=0 and fills the fleet.
func (a *Arena) startClosedLoop() {
	s := a.sched
	a.shards.Engine(0).At(0, func() {
		for i := 0; i < a.cfg.Tasks; i++ {
			s.offered++
			s.queue = append(s.queue, a.makeTask(i, 0))
		}
		if len(s.queue) > s.maxQueue {
			s.maxQueue = len(s.queue)
		}
		a.fill()
	})
}

// startOpenLoop drives the arrival process on the dispatcher's engine.
func (a *Arena) startOpenLoop() {
	s := a.sched
	eng := a.shards.Engine(0)
	rng := rand.New(rand.NewSource(a.cfg.Seed))
	maxQ := 4 * a.cfg.Nodes
	id := 0
	var arrive func()
	arrive = func() {
		now := eng.Now()
		if now.Sub(0) >= a.cfg.Duration {
			return
		}
		s.offered++
		if len(s.queue) >= maxQ {
			s.refused++
		} else {
			s.queue = append(s.queue, a.makeTask(id, now))
			if len(s.queue) > s.maxQueue {
				s.maxQueue = len(s.queue)
			}
			a.fill()
		}
		id++
		eng.After(a.cfg.Arrivals.Gap(now, rng), arrive)
	}
	eng.After(a.cfg.Arrivals.Gap(0, rng), arrive)
}

// makeTask instantiates arrival i from the cycled templates.
func (a *Arena) makeTask(i int, now sim.Time) arenaTask {
	app := a.cfg.Templates[i%len(a.cfg.Templates)]
	app.Seed = a.cfg.Seed + int64(i)*1_000_003
	return arenaTask{id: i, app: app, pages: app.Spec.FootprintPages, arrived: now}
}

// defaultArenaPolicy is worst-fit spreading (most free cores wins, free
// pages break ties, then the lowest node index). Immutable, safe to share
// across arenas.
var defaultArenaPolicy = place.Builtin("worst-fit")

// fill places queued tasks while the placement policy finds a target. FIFO
// head-of-line: the queue does not reorder around a task that cannot place,
// which keeps placement order — and therefore everything downstream —
// trivially deterministic. A placement failure records the fleet's stranded
// memory at that instant; under a one-shot policy the task is then refused
// outright instead of waiting at the head for capacity.
func (a *Arena) fill() {
	s := a.sched
	for len(s.queue) > 0 {
		t := s.queue[0]
		node := a.pol.Place(place.Request{Cores: t.app.Cores, Pages: t.pages}, s.ledger.Candidates())
		if node < 0 {
			if stranded := s.ledger.StrandedPages(t.app.Cores); stranded > s.peakStranded {
				s.peakStranded = stranded
			}
			if !a.pol.OneShot() {
				return
			}
			s.queue = s.queue[1:]
			s.refused++
			continue
		}
		s.queue = s.queue[1:]
		s.ledger.Reserve(node, t.app.Cores, t.pages)
		a.dispatch(t, node)
	}
}

// dispatch sends the placement RPC to the chosen node's shard.
func (a *Arena) dispatch(t arenaTask, node int) {
	s := a.sched
	s.dispSeq++
	n := a.nodes[node]
	a.shards.Send(0, n.shard, ArenaRPCLatency, s.dispSeq, func() {
		a.startTask(n, t)
	})
}

// startTask runs the task on its node. Runs on the node's shard.
func (a *Arena) startTask(n *arenaNode, t arenaTask) {
	eng := a.shards.Engine(n.shard)
	start := eng.Now()
	backend := n.pickBackend()
	n.perBackend[backend]++

	cfg := task.Config{
		Eng:        eng,
		Name:       fmt.Sprintf("arena/n%04d/t%d", n.id, t.id),
		Spec:       t.app.Spec,
		Seed:       t.app.Seed,
		LocalRatio: arenaLocalRatio,
		FilePath:   n.filePath,
	}
	if a.cfg.XDM {
		// Isolated bypass path with a per-task channel and adaptive
		// readahead — the console-tuned configuration.
		ch := swap.NewChannel(eng, cfg.Name+".ch", 4)
		cfg.SwapPath = swap.NewPath(eng, n.machine.Backend(backend), ch)
		cfg.GranularityPages = 32
		cfg.AdaptiveWindow = true
	} else {
		// Traditional stack: shared channel, hierarchical host hop, fixed
		// kernel readahead.
		cfg.SwapPath = n.machine.SharedPath(backend)
		cfg.GranularityPages = 8
	}

	a.pools[n.shard].New(cfg).Start(func(task.Stats) {
		n.perBackend[backend]--
		n.msgSeq++
		key := uint64(n.id+1)<<32 | n.msgSeq
		delay := start.Sub(t.arrived)
		a.shards.Send(n.shard, 0, ArenaRPCLatency, key, func() {
			a.finishTask(t, n.id, delay)
		})
	})
}

// pickBackend chooses the least-loaded backend on the node, preferring the
// faster medium on ties (dram, then rdma, then ssd). Static mode always
// answers the node SSD.
func (n *arenaNode) pickBackend() string {
	names := n.machine.BackendNames() // sorted: dram < rdma < ssd
	if len(names) == 1 {
		return names[0]
	}
	sort.SliceStable(names, func(i, j int) bool {
		return n.perBackend[names[i]] < n.perBackend[names[j]]
	})
	return names[0]
}

// finishTask handles a completion report on the dispatcher: credit the
// cached ledger (which therefore lags reality by the report latency, like a
// heartbeat-fed scheduler cache), record the outcome, and place more work.
// Runs on shard 0.
func (a *Arena) finishTask(t arenaTask, node int, delay sim.Duration) {
	s := a.sched
	s.ledger.Release(node, t.app.Cores, t.pages)
	s.completed++
	if a.cfg.SLO <= 0 || delay <= a.cfg.SLO {
		s.inSLO++
	}
	s.lastDone = a.shards.Engine(0).Now()
	s.delays = append(s.delays, delay)
	a.fill()
}

// result assembles the outcome.
func (a *Arena) result() ArenaResult {
	s := a.sched
	res := ArenaResult{
		Offered:   s.offered,
		Refused:   s.refused,
		Completed: s.completed,
		InSLO:     s.inSLO,
		InFlight:  s.offered - s.refused - s.completed,
		MaxQueue:  s.maxQueue,
		MBE:       cluster.MBE(s.ledger.PeakUtilizations(), 0.3, 0.7),
		Events:    a.shards.Stats().Events,
	}
	if total := s.ledger.TotalPages(); total > 0 {
		res.StrandedFrac = float64(s.peakStranded) / float64(total)
	}
	res.LastDone = s.lastDone.Sub(0)
	if a.cfg.Arrivals != nil {
		res.Makespan = a.cfg.Duration + a.cfg.Drain
	} else {
		res.Makespan = s.lastDone.Sub(0)
	}
	sorted := append([]sim.Duration(nil), s.delays...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	res.DelayP50 = pick(sorted, 0.50)
	res.DelayP95 = pick(sorted, 0.95)
	res.DelayP99 = pick(sorted, 0.99)
	return res
}

// pick reads the q-quantile of a sorted slice: the element at index
// floor(q·(n−1)), rounding the rank down rather than nearest-rank.
func pick(d []sim.Duration, q float64) sim.Duration {
	if len(d) == 0 {
		return 0
	}
	i := int(q * float64(len(d)-1))
	return d[i]
}
