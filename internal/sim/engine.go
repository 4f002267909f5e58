package sim

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"repro/internal/invariant"
)

// Registered invariants for the event kernel. The virtual clock may only
// move forward (a fired event's timestamp is never before the current time),
// and the live-event count can never go negative — either failing means the
// heap, the tombstone bookkeeping, or a caller's time arithmetic is corrupt.
var (
	ckClockMonotonic = invariant.Register("sim.clock.monotonic")
	ckLiveEvents     = invariant.Register("sim.events.live-nonnegative")
)

// An event is one pending callback's place in virtual time. Events at the
// same instant fire in scheduling order (seq breaks ties), which keeps runs
// deterministic. The callback itself lives in the event's slot, so an event
// is a pointer-free 24-byte value: heap sifts move it without a write
// barrier, and the collector never scans the heap or the lane.
type event struct {
	at   Time
	seq  uint64
	slot int32
}

// less orders events by (at, seq), the one order events fire in. It compares
// the pair as one 128-bit number, without a branch the sifts would
// mispredict; uint64(at) keeps the order of times, which are never negative
// (the clock starts at zero and nothing is scheduled before it).
func (ev event) less(o event) bool {
	_, b := bits.Sub64(ev.seq, o.seq, 0)
	_, b = bits.Sub64(uint64(ev.at), uint64(o.at), b)
	return b != 0
}

// eventSlot holds one pending event's callback. A nil fn marks the slot
// cancelled (or free): Cancel drops the closure at once, and the event's
// heap or lane entry is left behind as a tombstone. Slots are recycled
// through a free list; gen stamps invalidate Handles from earlier tenancies
// of the same slot, so cancel-after-fire is a cheap no-op.
type eventSlot struct {
	gen uint64
	fn  func()
}

// Engine is a discrete-event simulation driver: a virtual clock plus a
// priority queue of pending events. An Engine is not safe for concurrent use;
// each simulation run owns exactly one Engine and executes single-threaded,
// which is what makes runs reproducible. (Independent runs parallelize at a
// higher level — see internal/experiments — with one Engine per goroutine.)
//
// Pending events sit in one of three kinds of queue. An event scheduled for
// the current instant goes to the lane, a FIFO; an event scheduled through a
// DelayLine goes to that delay's FIFO; every other event, and every
// cross-shard delivery, goes to the heap. Each FIFO is sorted by
// construction: the clock never goes back and seq only grows, so an event
// appended at now+d is at or after the one before it. A non-empty delay
// FIFO keeps one proxy entry in the heap, keyed at or before its first live
// event; when the proxy reaches the heap top, the engine drops cancelled
// events off the FIFO head and re-keys the proxy to the live head before
// trusting it.
// The next event is then the smaller of the lane head and the heap top by
// (at, seq), so firing order is exactly that of a single (at, seq)-ordered
// queue.
type Engine struct {
	now  Time
	heap []event // inlined 4-ary min-heap ordered by (at, seq); may hold tombstones and FIFO proxies
	// lane holds the pending same-instant events in (at, seq) order; may
	// hold tombstones.
	lane eventQueue
	// fifos are the engine's delay FIFOs, one per distinct delay, indexed
	// by DelayLine and by the ^index slot of each FIFO's heap proxy.
	fifos []delayFIFO
	seq   uint64
	// slots/freeSlots implement generation-stamped lazy cancellation:
	// Cancel only clears the slot's callback, and the tombstone is dropped
	// when it surfaces at the heap top, the lane head or a delay FIFO's
	// head, or when its queue is compacted. No O(log n) heap.Remove, no
	// index maintenance on every sift.
	slots     []eventSlot
	freeSlots []int32
	// genBase is the generation fresh slots start from. It advances past
	// every generation ever issued when the slot table is released after a
	// burst (see maybeTrim), so a Handle into the old table can never
	// match a slot of the new one.
	genBase  uint64
	live     int // pending events not yet cancelled
	heapDead int // tombstones in the heap
	// processed counts events executed, exposed for tests and runaway guards.
	processed uint64
	// stepHook, when set, observes every fired event (see SetStepHook).
	stepHook func(Time)
}

// newEngineHook lets an observability layer learn about every engine the
// program creates without sim importing it (that would be an import cycle:
// obs needs sim.Time). Stored through an atomic pointer because engines are
// created concurrently from experiment worker goroutines.
var newEngineHook atomic.Pointer[func(*Engine)]

// SetNewEngineHook installs fn to be called with every engine returned by
// NewEngine, and returns a func that restores the previous hook. Passing nil
// clears the hook. Install hooks at setup time, before simulations start.
func SetNewEngineHook(fn func(*Engine)) (restore func()) {
	var p *func(*Engine)
	if fn != nil {
		p = &fn
	}
	prev := newEngineHook.Swap(p)
	return func() { newEngineHook.Store(prev) }
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	e := &Engine{}
	if fn := newEngineHook.Load(); fn != nil {
		(*fn)(e)
	}
	return e
}

// NewUnobservedEngine returns an engine that bypasses the new-engine hook.
// Offline staging runs (baseline calibration) use it so that the set of
// observed engines — and therefore any exported trace — does not depend on
// calibration-cache warmth or worker interleaving.
func NewUnobservedEngine() *Engine {
	return &Engine{}
}

// SetStepHook installs fn to be called with the clock time of every event
// this engine fires, just before the event's callback runs. A nil fn removes
// the hook. The disabled cost is one nil check per event.
func (e *Engine) SetStepHook(fn func(Time)) { e.stepHook = fn }

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Processed reports how many events have been executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Handle identifies a scheduled event so it can be cancelled before firing.
// The zero Handle is valid and never matches a live event. A Handle is 16
// bytes: the event's slot and generation, and a tag naming the queue the
// event waits in, so Cancel can count the tombstone it leaves there.
type Handle struct {
	slot int32
	tag  int32 // tagHeap, tagLane, or ^i for delay FIFO i
	gen  uint64
}

// Handle tags for the heap and the same-instant lane; a delay FIFO's events
// carry the complement of its index, which is negative.
const (
	tagHeap int32 = 0
	tagLane int32 = 1
)

// Cancel removes the event from the engine if it has not fired yet and
// reports whether it was still pending. Double-cancel and cancel-after-fire
// are explicit no-ops: the generation stamp no longer matches (or the
// slot's callback is already gone), so Cancel returns false without touching
// any queue.
//
// Cancellation is lazy — the slot only drops its callback here — but when
// tombstones come to dominate the heap or a delay FIFO (more dead than live
// entries) that queue is compacted in one O(n) pass, so a cancel-heavy phase
// cannot leave the schedule path sifting through a graveyard. The compaction
// cost is amortized: it removes more than half the queue, so each cancelled
// event pays O(1) extra. Lane tombstones need no compaction: every lane
// entry is at the current instant, so they reach the lane head before the
// clock moves.
func (h Handle) Cancel(e *Engine) bool {
	if h.gen == 0 || int(h.slot) >= len(e.slots) {
		return false
	}
	s := &e.slots[h.slot]
	if s.gen != h.gen || s.fn == nil {
		return false
	}
	s.fn = nil
	e.live--
	switch {
	case h.tag == tagHeap:
		e.heapDead++
		if n := len(e.heap); n >= compactMin && e.heapDead > n/2 {
			e.compact()
		}
	case h.tag < 0:
		f := &e.fifos[^h.tag]
		f.dead++
		if n := f.len(); n >= compactMin && f.dead > n/2 {
			e.compactFIFO(f)
		}
	}
	return true
}

// compactMin is the queue size below which tombstone compaction is not
// worth the rebuild; tiny queues drain tombstones through peekLive anyway.
const compactMin = 64

// compact drops every tombstone from the heap in one pass and restores the
// heap order of the survivors. FIFO proxies stay: each stands for its FIFO.
// Pop order is fully determined by (at, seq), so compaction is invisible to
// the simulation: only memory and sift depth change.
func (e *Engine) compact() {
	h := e.heap
	k := 0
	for _, ev := range h {
		if ev.slot >= 0 && e.slots[ev.slot].fn == nil {
			e.freeSlot(ev.slot)
			continue
		}
		h[k] = ev
		k++
	}
	e.heap = h[:k]
	e.heapDead = 0
	for i := (k - 2) >> 2; i >= 0; i-- {
		e.siftDown(i, e.heap[i])
	}
}

// compactFIFO drops every tombstone from a delay FIFO and frees their slots.
// The survivors keep their order. The FIFO's proxy keeps its key, which is
// still at or before the first live event; peekLive re-keys it when it
// reaches the heap top.
func (e *Engine) compactFIFO(f *delayFIFO) {
	q := f.q[:0]
	for _, ev := range f.q[f.head:] {
		if e.slots[ev.slot].fn == nil {
			e.freeSlot(ev.slot)
			continue
		}
		q = append(q, ev)
	}
	f.q, f.head, f.dead = q, 0, 0
}

// allocSlot returns a slot index holding fn for a new event, recycling
// freed slots.
func (e *Engine) allocSlot(fn func()) int32 {
	if n := len(e.freeSlots); n > 0 {
		slot := e.freeSlots[n-1]
		e.freeSlots = e.freeSlots[:n-1]
		e.slots[slot].fn = fn
		return slot
	}
	if e.genBase == 0 {
		e.genBase = 1
	}
	e.slots = append(e.slots, eventSlot{gen: e.genBase, fn: fn})
	return int32(len(e.slots) - 1)
}

// freeSlot retires a slot once its event left its queue (fired or dropped
// as a tombstone). Bumping gen invalidates every outstanding Handle to it.
func (e *Engine) freeSlot(slot int32) {
	s := &e.slots[slot]
	s.gen++
	s.fn = nil
	e.freeSlots = append(e.freeSlots, slot)
}

// deliverySeqBase is the sequence band for cross-shard deliveries (see
// atKeyed). Local events use the engine's monotone counter, which can never
// reach 2^63, so the two bands cannot collide.
const deliverySeqBase = uint64(1) << 63

// atKeyed schedules a cross-shard delivery at absolute time t, ordered at
// that instant by key instead of by scheduling order: delivery sequence
// numbers live in a band above every local sequence number, so same-instant
// ordering on any engine is "local events first, then deliveries in key
// order" — a rule that does not depend on *when* the delivery was merged in,
// which is what makes sharded runs byte-identical across shard and worker
// counts (see Shards). Keys must be unique per (engine, instant) and stay
// below 2^63.
func (e *Engine) atKeyed(t Time, key uint64, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: delivering event at %v before now %v", t, e.now))
	}
	if fn == nil {
		panic("sim: nil event callback")
	}
	e.push(event{at: t, seq: deliverySeqBase | key, slot: e.allocSlot(fn)})
	e.live++
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it always indicates a bug in the caller's time arithmetic.
func (e *Engine) At(t Time, fn func()) Handle {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if fn == nil {
		panic("sim: nil event callback")
	}
	slot := e.allocSlot(fn)
	e.seq++
	e.live++
	ev := event{at: t, seq: e.seq, slot: slot}
	h := Handle{slot: slot, gen: e.slots[slot].gen}
	if t == e.now {
		e.lane.push(ev)
		h.tag = tagLane
	} else {
		e.push(ev)
	}
	return h
}

// After schedules fn to run d after the current time. Negative d panics.
func (e *Engine) After(d Duration, fn func()) Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now.Add(d), fn)
}

// Immediately schedules fn at the current instant, after any events already
// queued for this instant.
func (e *Engine) Immediately(fn func()) Handle {
	return e.At(e.now, fn)
}

// A DelayLine schedules events a fixed delay after the current time, as
// After with that delay would: the event gets the same (now+d, seq) and a
// Handle that cancels it the same way. It keeps the events in a FIFO
// instead of the heap, so a timer that is nearly always cancelled before it
// fires (a per-attempt timeout) costs an append and a slot, not a heap
// sift, and leaves its tombstone where compaction finds it cheaply. Get one
// with Engine.Delay; the zero DelayLine is not usable.
type DelayLine struct {
	e *Engine
	i int32 // index into e.fifos
}

// Delay returns the engine's DelayLine for delay d, creating its FIFO on
// first use: there is one per distinct d. Look it up once, when the owner
// is built, and keep it. Negative d panics.
func (e *Engine) Delay(d Duration) DelayLine {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	for i := range e.fifos {
		if e.fifos[i].d == d {
			return DelayLine{e, int32(i)}
		}
	}
	e.fifos = append(e.fifos, delayFIFO{d: d})
	return DelayLine{e, int32(len(e.fifos) - 1)}
}

// Schedule runs fn after the line's delay.
func (l DelayLine) Schedule(fn func()) Handle {
	e := l.e
	if fn == nil {
		panic("sim: nil event callback")
	}
	f := &e.fifos[l.i]
	slot := e.allocSlot(fn)
	e.seq++
	e.live++
	ev := event{at: e.now.Add(f.d), seq: e.seq, slot: slot}
	if !f.proxied {
		e.push(event{at: ev.at, seq: ev.seq, slot: ^l.i})
		f.proxied = true
	}
	f.push(ev)
	return Handle{slot: slot, tag: ^l.i, gen: e.slots[slot].gen}
}

// eventQueue is a FIFO of events appended in (at, seq) order: q[head:] are
// pending and may hold tombstones. The slice is reset when it drains.
type eventQueue struct {
	q    []event
	head int
}

func (q *eventQueue) len() int     { return len(q.q) - q.head }
func (q *eventQueue) empty() bool  { return q.head == len(q.q) }
func (q *eventQueue) front() event { return q.q[q.head] }

// push appends ev. When the array is full and at least half of it is an
// already-popped prefix, the pending suffix moves down instead of the array
// growing, so a queue that never drains (a same-instant cascade, a stream
// of timers) reuses its storage.
func (q *eventQueue) push(ev event) {
	if len(q.q) == cap(q.q) && q.head > 0 && 2*q.head >= len(q.q) {
		n := copy(q.q, q.q[q.head:])
		q.q = q.q[:n]
		q.head = 0
	}
	q.q = append(q.q, ev)
}

// pop removes the head.
func (q *eventQueue) pop() {
	q.head++
	if q.head == len(q.q) {
		q.q = q.q[:0]
		q.head = 0
	}
}

// delayFIFO is the queue behind one DelayLine.
type delayFIFO struct {
	eventQueue
	d       Duration
	dead    int  // tombstones in the queue
	proxied bool // the FIFO's proxy is in the heap; always so when it is non-empty
}

// push inserts ev into the 4-ary heap (hole-based sift-up).
func (e *Engine) push(ev event) {
	e.heap = append(e.heap, ev)
	h := e.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if h[p].less(ev) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
}

// pop removes the heap minimum (hole-based sift-down).
func (e *Engine) pop() {
	h := e.heap
	n := len(h) - 1
	last := h[n]
	e.heap = h[:n]
	if n > 0 {
		e.siftDown(0, last)
	}
}

// siftDown places v into the heap starting from the hole at index i. Where a
// node has all four children, their minimum is found as two independent
// pairs and a final match.
func (e *Engine) siftDown(i int, v event) {
	h := e.heap
	n := len(h)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		if c+4 <= n {
			k := h[c : c+4 : c+4]
			a, b := 0, 2
			if k[1].less(k[0]) {
				a = 1
			}
			if k[3].less(k[2]) {
				b = 3
			}
			if k[b].less(k[a]) {
				a = b
			}
			m = c + a
		} else {
			for j := c + 1; j < n; j++ {
				if h[j].less(h[m]) {
					m = j
				}
			}
		}
		if v.less(h[m]) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = v
}

// peekLive drops cancelled tombstones off the lane head and the heap top and
// reports the next live event, if any, and whether it is the lane head. A
// delay FIFO's event is reported as its proxy, keyed at the event.
func (e *Engine) peekLive() (ev event, inLane, ok bool) {
	for !e.lane.empty() {
		ev = e.lane.front()
		if e.slots[ev.slot].fn != nil {
			inLane = true
			break
		}
		e.lane.pop()
		e.freeSlot(ev.slot)
	}
	for len(e.heap) > 0 {
		top := e.heap[0]
		if top.slot < 0 {
			if !e.syncProxy(top) {
				continue
			}
		} else if e.slots[top.slot].fn == nil {
			e.pop()
			e.heapDead--
			e.freeSlot(top.slot)
			continue
		}
		if !inLane || top.less(ev) {
			return top, false, true
		}
		break
	}
	return ev, inLane, inLane
}

// syncProxy checks top, the heap top and a delay FIFO's proxy, against its
// FIFO. It drops tombstones off the FIFO head, then removes the proxy if the
// FIFO is empty, or re-keys it to the live head if the head is not the
// event the proxy is keyed at, which is the event that fired last, a
// tombstone, or one compaction dropped. It reports whether the proxy was
// keyed at the live head already and so stands for the next event.
func (e *Engine) syncProxy(top event) bool {
	f := &e.fifos[^top.slot]
	for !f.empty() {
		head := f.front()
		if e.slots[head.slot].fn != nil {
			if head.seq == top.seq {
				return true
			}
			e.siftDown(0, event{at: head.at, seq: head.seq, slot: top.slot})
			return false
		}
		f.pop()
		f.dead--
		e.freeSlot(head.slot)
	}
	e.pop()
	f.proxied = false
	return false
}

// fire removes ev, the next live event peekLive reported, from its queue and
// executes it, advancing the clock to its timestamp. A FIFO event leaves its
// proxy keyed at it; the next peekLive re-keys or removes the proxy.
func (e *Engine) fire(ev event, inLane bool) {
	slot := ev.slot
	switch {
	case inLane:
		e.lane.pop()
	case slot >= 0:
		e.pop()
	default:
		f := &e.fifos[^slot]
		slot = f.front().slot
		f.pop()
	}
	fn := e.slots[slot].fn
	e.freeSlot(slot)
	e.live--
	if invariant.On {
		ckClockMonotonic.Assert(ev.at >= e.now,
			"event at %v fires with clock already at %v", ev.at, e.now)
		ckLiveEvents.Assert(e.live >= 0, "live event count %d", e.live)
	}
	e.now = ev.at
	e.processed++
	if e.stepHook != nil {
		e.stepHook(e.now)
	}
	fn()
}

// Step executes the next pending event, advancing the clock to its timestamp.
// It reports false when no events remain.
func (e *Engine) Step() bool {
	ev, inLane, ok := e.peekLive()
	if !ok {
		return false
	}
	e.fire(ev, inLane)
	return true
}

// Run executes events until none remain or Stop is called.
func (e *Engine) Run() {
	for e.Step() {
	}
	e.maybeTrim()
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// exactly t (even if the queue drained earlier).
func (e *Engine) RunUntil(t Time) {
	for {
		ev, inLane, ok := e.peekLive()
		if !ok || ev.at > t {
			break
		}
		e.fire(ev, inLane)
	}
	if e.now < t {
		e.now = t
	}
	e.maybeTrim()
}

// trimSlotThreshold is the slot-table size beyond which a fully drained
// engine releases its heap, lane, FIFO and slot storage. Steady-state
// workloads (a few hundred concurrent events) never cross it, so the
// zero-alloc schedule path is untouched; a burst that pinned tens of
// thousands of slots is given back to the allocator once the burst drains
// instead of being held for the life of the engine.
const trimSlotThreshold = 4096

// maybeTrim releases the heap, lane, delay FIFOs, slot table, and free lists
// after a full drain if a past burst left them oversized. Only safe when
// nothing is pending: every slot is then free, an empty heap holds no FIFO
// proxy so every FIFO is empty, and advancing genBase past every generation
// ever issued keeps stale Handles into the old table from matching the new
// one. The FIFOs themselves stay, since DelayLines index them.
func (e *Engine) maybeTrim() {
	if e.live != 0 || len(e.heap) != 0 || !e.lane.empty() || len(e.slots) <= trimSlotThreshold {
		return
	}
	for i := range e.slots {
		if g := e.slots[i].gen; g >= e.genBase {
			e.genBase = g + 1
		}
	}
	e.slots, e.freeSlots, e.heap, e.lane = nil, nil, nil, eventQueue{}
	for i := range e.fifos {
		e.fifos[i].eventQueue = eventQueue{}
	}
}

// nextLiveEvent reports the next pending event without executing it.
func (e *Engine) nextLiveEvent() (at Time, ok bool) {
	ev, _, ok := e.peekLive()
	return ev.at, ok
}

// runWindow executes pending events with timestamps strictly below limit —
// one shard's share of a conservative lookahead window (see Shards). The
// clock is left at the last fired event; it is not advanced to the window
// edge, so the next window start is still derived from real event times.
func (e *Engine) runWindow(limit Time) int {
	n := 0
	for {
		ev, inLane, ok := e.peekLive()
		if !ok || ev.at >= limit {
			break
		}
		e.fire(ev, inLane)
		n++
	}
	return n
}
