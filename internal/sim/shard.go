package sim

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Shards is the parallel-in-time kernel: one simulation partitioned into
// isolated domains (shards), each owning a private Engine, synchronized by
// conservative lookahead windows.
//
// The contract a model must honor:
//
//   - Every piece of mutable simulation state belongs to exactly one shard,
//     and is touched only by events scheduled on that shard's Engine.
//   - Cross-shard interaction goes through Send, never through a direct
//     method call or shared variable, and every cross-shard delivery is at
//     least the group's lookahead in the future. Physical models provide
//     that bound naturally: a PCIe hop, an RDMA round-trip, or a
//     dispatcher→machine placement RPC all have latency floors.
//
// Under that contract execution proceeds in windows: the coordinator finds
// the globally earliest pending event at time T, and every shard processes
// its local events with timestamps in [T, T+lookahead) — in parallel when
// driven by multiple workers. Cross-shard messages produced during the
// window are exchanged at the barrier. Because a message sent at time t
// carries a delay >= lookahead and t >= T, its delivery time is >= T +
// lookahead — strictly beyond the window — so no shard can ever receive an
// event in its past. No rollback, no speculation.
//
// Determinism is bit-exact and worker-count independent: each shard's window
// execution is a serial run over private state, and deliveries are ordered
// by a rule with no wall-clock input. Every delivery is scheduled in a
// sequence band above all local events, so at any instant an engine fires
// its local events first and then the deliveries in ascending key order —
// regardless of which barrier merged them in, how many shards exist, or how
// many workers ran the windows. When senders assign keys from stable model
// identity (an actor id plus a per-actor counter — never a shard index),
// the whole simulation is invariant across shard *counts* too, the property
// the datacenter arena's tests pin down.
//
// A lookahead of zero (some cross-domain link with no latency floor) cannot
// form a window; the group then degrades to a serial merge that steps the
// globally earliest event one at a time and flushes cross-shard sends after
// every step — slower, but identical ordering semantics: no deadlock, no
// reordering.
type Shards struct {
	lookahead Duration
	engines   []*Engine

	// outbox[src] buffers cross-shard messages produced by shard src during
	// the current window. Each slice is written only by the goroutine
	// executing that shard, so windows need no locks; the coordinator owns
	// all slices between windows.
	outbox  [][]xmsg
	sendSeq []uint64
	merged  []xmsg // barrier merge scratch

	windows  uint64
	messages uint64
	busy     []int64 // per-shard wall nanos inside windows
	wall     int64   // wall nanos inside Run/RunUntil

	// snapshot of Stats at the last package-totals accounting, so repeated
	// Run/RunUntil calls on one group fold only their delta.
	acctEvents, acctWindows, acctMessages uint64
	acctBusy, acctWall                    int64
}

// xmsg is one buffered cross-shard event.
type xmsg struct {
	at  Time
	key uint64
	src int32
	seq uint64 // per-source send sequence, final tie-break
	dst int32
	fn  func()
}

// NewShards builds a group of n engines synchronized with the given
// lookahead. Each engine is created through NewEngine, so observability
// hooks see every shard. A lookahead of zero selects the serial-merge
// fallback (see the type comment); a negative lookahead panics.
func NewShards(n int, lookahead Duration) *Shards {
	if n <= 0 {
		panic("sim: Shards needs at least one shard")
	}
	if lookahead < 0 {
		panic(fmt.Sprintf("sim: negative lookahead %v", lookahead))
	}
	s := &Shards{
		lookahead: lookahead,
		engines:   make([]*Engine, n),
		outbox:    make([][]xmsg, n),
		sendSeq:   make([]uint64, n),
		busy:      make([]int64, n),
	}
	for i := range s.engines {
		s.engines[i] = NewEngine()
	}
	return s
}

// Engine returns shard i's engine, on which domain-local events are
// scheduled directly (At/After/Immediately as usual).
func (s *Shards) Engine(i int) *Engine { return s.engines[i] }

// Send schedules fn on shard dst at shard src's current time plus d. It
// must be called from shard src — from an event executing on src's engine,
// or before the run starts. For src != dst, d must be at least the group's
// lookahead (the conservative-synchronization precondition; violating it
// panics, because it would let a shard observe an event in its past). The
// key is the delivery's position among same-instant events on dst: local
// events fire first, then deliveries in ascending key order — regardless of
// worker count or shard layout (src == dst takes the same keyed path, so a
// one-shard run orders identically to an eight-shard run). Keys must come
// from stable model identity (an actor id and per-actor counter), never
// from shard indices, must stay below 2^63, and must be unique per
// (destination, instant).
func (s *Shards) Send(src, dst int, d Duration, key uint64, fn func()) {
	if src < 0 || src >= len(s.engines) || dst < 0 || dst >= len(s.engines) {
		panic(fmt.Sprintf("sim: Send between invalid shards %d -> %d of %d", src, dst, len(s.engines)))
	}
	if d < 0 {
		panic(fmt.Sprintf("sim: negative cross-shard delay %v", d))
	}
	if src == dst {
		e := s.engines[src]
		e.atKeyed(e.Now().Add(d), key, fn)
		return
	}
	if s.lookahead > 0 && d < s.lookahead {
		panic(fmt.Sprintf("sim: cross-shard delay %v below lookahead %v", d, s.lookahead))
	}
	s.sendSeq[src]++
	s.outbox[src] = append(s.outbox[src], xmsg{
		at:  s.engines[src].Now().Add(d),
		key: key,
		src: int32(src),
		seq: s.sendSeq[src],
		dst: int32(dst),
		fn:  fn,
	})
}

// Run executes the whole group until every shard drains, driving windows
// with the given number of worker goroutines (values below 2, or a
// single-shard group, run serially; output is byte-identical either way).
func (s *Shards) Run(workers int) { s.RunUntil(MaxTime, workers) }

// RunUntil executes the group's events with timestamps <= t, then advances
// every shard's clock to exactly t (even if the queues drained earlier).
func (s *Shards) RunUntil(t Time, workers int) {
	start := time.Now()
	defer func() {
		s.wall += int64(time.Since(start))
		s.accountTotals()
	}()

	if s.lookahead <= 0 {
		s.runSerialMerge(t)
	} else {
		s.runWindows(t, workers)
	}
	if t < MaxTime {
		for _, e := range s.engines {
			e.RunUntil(t) // queues are drained past t; this advances clocks
		}
	}
}

// runWindows is the conservative windowed driver.
func (s *Shards) runWindows(until Time, workers int) {
	if workers > len(s.engines) {
		workers = len(s.engines)
	}
	var pool *windowPool
	if workers > 1 {
		pool = s.startPool(workers)
		defer pool.stop()
	}
	for {
		s.deliver()
		t, ok := s.earliest()
		if !ok || t > until {
			return
		}
		limit := t.Add(s.lookahead)
		if limit < t { // overflow: unbounded window
			limit = MaxTime
		}
		if until < MaxTime && limit > until {
			limit = until + 1 // RunUntil semantics: events at exactly until run
		}
		s.windows++
		if pool != nil {
			pool.runWindow(limit)
		} else {
			for i, e := range s.engines {
				ws := time.Now()
				e.runWindow(limit)
				s.busy[i] += int64(time.Since(ws))
			}
		}
	}
}

// earliest reports the earliest pending event time across all shards.
func (s *Shards) earliest() (Time, bool) {
	var t Time
	any := false
	for _, e := range s.engines {
		if nt, ok := e.nextLiveEvent(); ok && (!any || nt < t) {
			t, any = nt, true
		}
	}
	return t, any
}

// deliver merges every buffered cross-shard message into its destination
// engine. The ordering of same-instant deliveries is carried by the key
// (see Engine.atKeyed), not by insertion order, so the merge itself only
// needs to be conflict-checked, not carefully sequenced; messages are still
// sorted canonically so the duplicate-key contract check is one adjacency
// scan. All delivery times are at or beyond every destination clock (the
// conservative invariant), so atKeyed never sees the past.
func (s *Shards) deliver() {
	m := s.merged[:0]
	for src := range s.outbox {
		m = append(m, s.outbox[src]...)
		if len(s.outbox[src]) > 0 {
			ob := s.outbox[src]
			for i := range ob {
				ob[i] = xmsg{} // drop fn references
			}
			s.outbox[src] = ob[:0]
		}
	}
	if len(m) == 0 {
		return
	}
	sortMsgs(m)
	for i := range m {
		if i > 0 && m[i].dst == m[i-1].dst && m[i].at == m[i-1].at && m[i].key == m[i-1].key {
			panic(fmt.Sprintf("sim: duplicate cross-shard key %d for shard %d at %v (keys must be unique per destination and instant)",
				m[i].key, m[i].dst, m[i].at))
		}
		s.engines[m[i].dst].atKeyed(m[i].at, m[i].key, m[i].fn)
		m[i] = xmsg{}
	}
	s.messages += uint64(len(m))
	s.merged = m[:0]
}

// sortMsgs orders messages by (dst, at, key, src, seq).
func sortMsgs(m []xmsg) {
	sort.Slice(m, func(i, j int) bool {
		a, b := &m[i], &m[j]
		if a.dst != b.dst {
			return a.dst < b.dst
		}
		if a.at != b.at {
			return a.at < b.at
		}
		if a.key != b.key {
			return a.key < b.key
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.seq < b.seq
	})
}

// runSerialMerge is the zero-lookahead fallback: a single logical event
// loop that steps the globally earliest event (ties to the lowest shard)
// and flushes cross-shard sends after every step. Delivery ordering is the
// same keyed rule the windowed driver uses, so the fallback changes only
// the schedule of the driver loop, never the order events fire. Serial by
// construction — correctness is preserved, parallelism is not.
func (s *Shards) runSerialMerge(until Time) {
	for {
		s.deliver()
		best := -1
		var et Time
		for i, e := range s.engines {
			if nt, ok := e.nextLiveEvent(); ok && (best < 0 || nt < et) {
				best, et = i, nt
			}
		}
		if best < 0 || et > until {
			return
		}
		ws := time.Now()
		s.engines[best].Step()
		s.busy[best] += int64(time.Since(ws))
	}
}

// --- parallel window pool ---

// windowPool is a persistent worker pool reused across windows, so a run
// with tens of thousands of barriers does not spawn goroutines per window.
type windowPool struct {
	s       *Shards
	workers int
	limit   Time
	next    atomic.Int64
	start   chan struct{}
	wg      sync.WaitGroup
}

func (s *Shards) startPool(workers int) *windowPool {
	p := &windowPool{s: s, workers: workers, start: make(chan struct{})}
	for w := 0; w < workers; w++ {
		go p.work()
	}
	return p
}

func (p *windowPool) work() {
	for range p.start {
		n := len(p.s.engines)
		for {
			i := int(p.next.Add(1)) - 1
			if i >= n {
				break
			}
			ws := time.Now()
			p.s.engines[i].runWindow(p.limit)
			p.s.busy[i] += int64(time.Since(ws))
		}
		p.wg.Done()
	}
}

// runWindow executes one window across the pool and blocks until every
// shard reaches the window edge.
func (p *windowPool) runWindow(limit Time) {
	p.limit = limit
	p.next.Store(0)
	p.wg.Add(p.workers)
	for w := 0; w < p.workers; w++ {
		p.start <- struct{}{}
	}
	p.wg.Wait()
}

func (p *windowPool) stop() { close(p.start) }

// --- throughput accounting ---

// ShardStats summarizes one group's execution for throughput reporting.
// Events and Windows are deterministic simulation quantities; BusyNanos and
// WallNanos are wall-clock measurements (reporting only — nothing feeds
// them back into the simulation).
type ShardStats struct {
	Events   uint64 // events fired across all sub-engines
	Windows  uint64 // lookahead windows executed
	Messages uint64 // cross-shard messages delivered
	Busy     time.Duration
	Wall     time.Duration
}

// Stats reports the group's cumulative execution statistics.
func (s *Shards) Stats() ShardStats {
	st := ShardStats{Windows: s.windows, Messages: s.messages, Wall: time.Duration(s.wall)}
	for _, e := range s.engines {
		st.Events += e.Processed()
	}
	for _, b := range s.busy {
		st.Busy += time.Duration(b)
	}
	return st
}

// Package-level totals across every Shards run, for CLI summaries
// ("aggregate events/sec", "effective shard parallelism"). Atomic because
// experiment grids run cells — each with its own group — concurrently.
var shardTotals struct {
	events, windows, messages atomic.Uint64
	busy, wall                atomic.Int64
}

// accountTotals folds the delta since this group's last accounting into the
// package totals (Run/RunUntil may be called repeatedly on one group).
func (s *Shards) accountTotals() {
	st := s.Stats()
	shardTotals.events.Add(st.Events - s.acctEvents)
	shardTotals.windows.Add(st.Windows - s.acctWindows)
	shardTotals.messages.Add(st.Messages - s.acctMessages)
	shardTotals.busy.Add(int64(st.Busy) - s.acctBusy)
	shardTotals.wall.Add(int64(st.Wall) - s.acctWall)
	s.acctEvents, s.acctWindows, s.acctMessages = st.Events, st.Windows, st.Messages
	s.acctBusy, s.acctWall = int64(st.Busy), int64(st.Wall)
}

// ShardRunTotals reports the cumulative ShardStats aggregated across every
// Shards run since the last reset. Wall over busy gives effective shard
// parallelism; events over wall gives aggregate events/sec.
func ShardRunTotals() ShardStats {
	return ShardStats{
		Events:   shardTotals.events.Load(),
		Windows:  shardTotals.windows.Load(),
		Messages: shardTotals.messages.Load(),
		Busy:     time.Duration(shardTotals.busy.Load()),
		Wall:     time.Duration(shardTotals.wall.Load()),
	}
}

// ResetShardRunTotals zeroes the package-level shard totals.
func ResetShardRunTotals() {
	shardTotals.events.Store(0)
	shardTotals.windows.Store(0)
	shardTotals.messages.Store(0)
	shardTotals.busy.Store(0)
	shardTotals.wall.Store(0)
}
