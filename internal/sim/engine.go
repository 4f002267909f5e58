package sim

import (
	"fmt"
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

// An event is a callback scheduled at a point in virtual time. Events at the
// same instant fire in scheduling order (seq breaks ties), which keeps runs
// deterministic. Events are stored by value in an inlined 4-ary min-heap:
// no per-event allocation and no container/heap interface boxing on the
// schedule/fire hot path.
type event struct {
	at   Time
	seq  uint64
	slot int32
	fn   func()
}

// eventSlot carries the cancellation state of one pending event. Slots are
// recycled through a free list; gen stamps invalidate Handles from earlier
// tenancies of the same slot, so cancel-after-fire is a cheap no-op.
type eventSlot struct {
	gen       uint64
	cancelled bool
}

// Engine is a discrete-event simulation driver: a virtual clock plus a
// priority queue of pending events. An Engine is not safe for concurrent use;
// each simulation run owns exactly one Engine and executes single-threaded,
// which is what makes runs reproducible. (Independent runs parallelize at a
// higher level — see internal/experiments — with one Engine per goroutine.)
type Engine struct {
	now  Time
	heap []event // 4-ary min-heap ordered by (at, seq); may hold tombstones
	seq  uint64
	// slots/freeSlots implement generation-stamped lazy cancellation:
	// Cancel only flips a bit, and the tombstone is dropped when it
	// surfaces at the heap top. No O(log n) heap.Remove, no index
	// maintenance on every sift.
	slots     []eventSlot
	freeSlots []int32
	// genBase is the generation fresh slots start from. It advances past
	// every generation ever issued when the slot table is released after a
	// burst (see maybeTrim), so a Handle into the old table can never
	// match a slot of the new one.
	genBase uint64
	live    int // pending events not yet cancelled
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
// The zero Handle is valid and never matches a live event.
type Handle struct {
	slot int32
	gen  uint64
}

// Cancel removes the event from the engine if it has not fired yet and
// reports whether it was still pending. Double-cancel and cancel-after-fire
// are explicit no-ops: the generation stamp no longer matches (or the
// cancelled bit is already set), so Cancel returns false without touching
// the heap.
//
// Cancellation is lazy — only a bit flips here — but when tombstones come to
// dominate the heap (more dead than live entries) the heap is compacted in
// one O(n) pass, so a cancel-heavy phase cannot leave the schedule path
// sifting through a graveyard. The compaction cost is amortized: it removes
// more than half the heap, so each cancelled event pays O(1) extra.
func (h Handle) Cancel(e *Engine) bool {
	if h.gen == 0 || int(h.slot) >= len(e.slots) {
		return false
	}
	s := &e.slots[h.slot]
	if s.gen != h.gen || s.cancelled {
		return false
	}
	s.cancelled = true
	e.live--
	if n := len(e.heap); n >= compactMinHeap && n-e.live > n/2 {
		e.compact()
	}
	return true
}

// compactMinHeap is the heap size below which tombstone compaction is not
// worth the rebuild; tiny heaps drain tombstones through peekLive anyway.
const compactMinHeap = 64

// compact drops every tombstone from the heap in one pass and restores the
// heap order of the survivors. Pop order is fully determined by (at, seq),
// so compaction is invisible to the simulation: only memory and sift depth
// change.
func (e *Engine) compact() {
	h := e.heap
	k := 0
	for _, ev := range h {
		if e.slots[ev.slot].cancelled {
			e.freeSlot(ev.slot)
			continue
		}
		h[k] = ev
		k++
	}
	for i := k; i < len(h); i++ {
		h[i] = event{} // drop fn references of removed tombstones
	}
	e.heap = h[:k]
	for i := (k - 2) >> 2; i >= 0; i-- {
		e.siftDown(i, e.heap[i])
	}
}

// allocSlot returns a slot index for a new event, recycling freed slots.
func (e *Engine) allocSlot() int32 {
	if n := len(e.freeSlots); n > 0 {
		slot := e.freeSlots[n-1]
		e.freeSlots = e.freeSlots[:n-1]
		e.slots[slot].cancelled = false
		return slot
	}
	if e.genBase == 0 {
		e.genBase = 1
	}
	e.slots = append(e.slots, eventSlot{gen: e.genBase})
	return int32(len(e.slots) - 1)
}

// freeSlot retires a slot once its event left the heap (fired or dropped as
// a tombstone). Bumping gen invalidates every outstanding Handle to it.
func (e *Engine) freeSlot(slot int32) {
	e.slots[slot].gen++
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
	slot := e.allocSlot()
	e.push(event{at: t, seq: deliverySeqBase | key, slot: slot, fn: fn})
	e.live++
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it always indicates a bug in the caller's time arithmetic.
func (e *Engine) At(t Time, fn func()) Handle {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	slot := e.allocSlot()
	e.seq++
	e.push(event{at: t, seq: e.seq, slot: slot, fn: fn})
	e.live++
	return Handle{slot: slot, gen: e.slots[slot].gen}
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

// push inserts ev into the 4-ary heap (hole-based sift-up).
func (e *Engine) push(ev event) {
	e.heap = append(e.heap, ev)
	h := e.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if h[p].at < ev.at || (h[p].at == ev.at && h[p].seq < ev.seq) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
}

// pop removes and returns the heap minimum (hole-based sift-down).
func (e *Engine) pop() event {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // drop the fn reference
	e.heap = h[:n]
	if n > 0 {
		e.siftDown(0, last)
	}
	return top
}

// siftDown places v into the heap starting from the hole at index i.
func (e *Engine) siftDown(i int, v event) {
	h := e.heap
	n := len(h)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if h[j].at < h[m].at || (h[j].at == h[m].at && h[j].seq < h[m].seq) {
				m = j
			}
		}
		if v.at < h[m].at || (v.at == h[m].at && v.seq < h[m].seq) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = v
}

// peekLive drops cancelled tombstones off the heap top and reports the next
// live event, if any.
func (e *Engine) peekLive() (event, bool) {
	for len(e.heap) > 0 {
		top := e.heap[0]
		if !e.slots[top.slot].cancelled {
			return top, true
		}
		e.pop()
		e.freeSlot(top.slot)
	}
	return event{}, false
}

// Step executes the next pending event, advancing the clock to its timestamp.
// It reports false when no events remain.
func (e *Engine) Step() bool {
	ev, ok := e.peekLive()
	if !ok {
		return false
	}
	e.pop()
	e.freeSlot(ev.slot)
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
	ev.fn()
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
		ev, ok := e.peekLive()
		if !ok || ev.at > t {
			break
		}
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
	e.maybeTrim()
}

// trimSlotThreshold is the slot-table size beyond which a fully drained
// engine releases its heap and slot storage. Steady-state workloads (a few
// hundred concurrent events) never cross it, so the zero-alloc schedule path
// is untouched; a burst that pinned tens of thousands of slots is given back
// to the allocator once the burst drains instead of being held for the life
// of the engine.
const trimSlotThreshold = 4096

// maybeTrim releases the heap, slot table, and free lists after a full drain
// if a past burst left them oversized. Only safe when nothing is pending:
// every slot is then free, and advancing genBase past every generation ever
// issued keeps stale Handles into the old table from matching the new one.
func (e *Engine) maybeTrim() {
	if e.live != 0 || len(e.heap) != 0 || len(e.slots) <= trimSlotThreshold {
		return
	}
	for i := range e.slots {
		if g := e.slots[i].gen; g >= e.genBase {
			e.genBase = g + 1
		}
	}
	e.slots, e.freeSlots, e.heap = nil, nil, nil
}

// nextLiveEvent reports the next pending event without executing it.
func (e *Engine) nextLiveEvent() (at Time, ok bool) {
	ev, ok := e.peekLive()
	return ev.at, ok
}

// runWindow executes pending events with timestamps strictly below limit —
// one shard's share of a conservative lookahead window (see Shards). The
// clock is left at the last fired event; it is not advanced to the window
// edge, so the next window start is still derived from real event times.
func (e *Engine) runWindow(limit Time) int {
	n := 0
	for {
		ev, ok := e.peekLive()
		if !ok || ev.at >= limit {
			break
		}
		e.Step()
		n++
	}
	return n
}
