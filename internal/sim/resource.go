package sim

import "repro/internal/invariant"

// Registered invariants for counted resources: occupancy (units in use and
// queued waiters) can never go negative, and a grant must never push usage
// past capacity (Resize may shrink capacity below the units already held;
// that overage is legal and drains, so the bound is only asserted on the
// grant paths, not after Resize).
var (
	ckResOccupancy = invariant.Register("sim.resource.occupancy-nonnegative")
	ckResBound     = invariant.Register("sim.resource.grant-within-capacity")
)

// Resource is a counted resource with a FIFO wait queue — the simulation
// analogue of a semaphore. Device channels, CPU cores, and swap-channel slots
// are all Resources. Each acquisition holds one unit. Acquisition is
// asynchronous: the callback fires (possibly immediately, possibly at a later
// virtual time) once the unit is granted.
type Resource struct {
	eng      *Engine
	capacity int
	inUse    int
	// waiters[head:] is the FIFO queue. Dequeuing advances head instead of
	// re-slicing, so the backing array is reused rather than walked forward
	// (which would reallocate steadily under churn).
	waiters []func()
	head    int
}

// NewResource creates a resource with the given number of units. Capacity
// must be positive.
func NewResource(eng *Engine, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{eng: eng, capacity: capacity}
}

// Capacity reports the total number of units.
func (r *Resource) Capacity() int { return r.capacity }

// InUse reports how many units are currently held.
func (r *Resource) InUse() int { return r.inUse }

// Waiting reports how many acquisitions are queued.
func (r *Resource) Waiting() int { return len(r.waiters) - r.head }

// popWaiter dequeues the head waiter, compacting the backing array once it
// is fully drained (or mostly dead space) so it can be reused.
func (r *Resource) popWaiter() func() {
	fn := r.waiters[r.head]
	r.waiters[r.head] = nil // drop the fn reference
	r.head++
	if r.head == len(r.waiters) {
		r.waiters = r.waiters[:0]
		r.head = 0
	} else if r.head > 32 && r.head*2 >= len(r.waiters) {
		n := copy(r.waiters, r.waiters[r.head:])
		clear(r.waiters[n:])
		r.waiters = r.waiters[:n]
		r.head = 0
	}
	return fn
}

// Acquire requests one unit and invokes fn once it is granted. Requests are
// served strictly FIFO.
func (r *Resource) Acquire(fn func()) {
	if r.Waiting() == 0 && r.inUse < r.capacity {
		r.grant(fn)
		return
	}
	r.waiters = append(r.waiters, fn)
}

// grant hands one unit to fn. It runs via the event queue so callers observe
// consistent ordering whether or not the acquisition had to wait.
func (r *Resource) grant(fn func()) {
	r.inUse++
	if invariant.On {
		ckResBound.Assert(r.inUse <= r.capacity,
			"in use %d exceeds capacity %d", r.inUse, r.capacity)
	}
	r.eng.Immediately(fn)
}

// Release returns one unit to the resource and admits as many queued
// waiters as now fit, in FIFO order.
func (r *Resource) Release() {
	if r.inUse == 0 {
		panic("sim: release with no units in use")
	}
	r.inUse--
	if invariant.On {
		ckResOccupancy.Assert(r.inUse >= 0 && r.Waiting() >= 0,
			"in use %d, waiting %d", r.inUse, r.Waiting())
	}
	r.admit()
}

// Resize changes the capacity. Growing admits queued waiters; shrinking below
// the units in use is allowed (the overage drains as holders release).
func (r *Resource) Resize(capacity int) {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	r.capacity = capacity
	r.admit()
}

// admit grants queued waiters, head first, while units are free.
func (r *Resource) admit() {
	for r.Waiting() > 0 && r.inUse < r.capacity {
		r.grant(r.popWaiter())
	}
}
