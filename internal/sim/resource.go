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
// are all Resources. Acquisition is asynchronous: the callback fires (possibly
// immediately, possibly at a later virtual time) once the units are granted.
type Resource struct {
	eng      *Engine
	capacity int
	inUse    int
	// waiters[head:] is the FIFO queue. Dequeuing advances head instead of
	// re-slicing, so the backing array is reused rather than walked forward
	// (which would reallocate steadily under churn).
	waiters []waiter
	head    int
}

type waiter struct {
	units int
	fn    func()
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
func (r *Resource) popWaiter() waiter {
	w := r.waiters[r.head]
	r.waiters[r.head] = waiter{} // drop the fn reference
	r.head++
	if r.head == len(r.waiters) {
		r.waiters = r.waiters[:0]
		r.head = 0
	} else if r.head > 32 && r.head*2 >= len(r.waiters) {
		n := copy(r.waiters, r.waiters[r.head:])
		for i := n; i < len(r.waiters); i++ {
			r.waiters[i] = waiter{}
		}
		r.waiters = r.waiters[:n]
		r.head = 0
	}
	return w
}

// Acquire requests units and invokes fn once they are granted. Requests are
// served strictly FIFO: a large request at the head blocks smaller ones
// behind it (no starvation). Requesting more units than the capacity panics.
func (r *Resource) Acquire(units int, fn func()) {
	if units <= 0 {
		panic("sim: acquire of non-positive units")
	}
	if units > r.capacity {
		panic("sim: acquire exceeds resource capacity")
	}
	if r.Waiting() == 0 && r.inUse+units <= r.capacity {
		r.inUse += units
		if invariant.On {
			ckResBound.Assert(r.inUse <= r.capacity,
				"in use %d exceeds capacity %d", r.inUse, r.capacity)
		}
		// Run via the event queue so callers observe consistent ordering
		// whether or not the acquisition had to wait.
		r.eng.Immediately(fn)
		return
	}
	r.waiters = append(r.waiters, waiter{units: units, fn: fn})
}

// Release returns units to the resource and admits as many queued waiters as
// now fit, in FIFO order.
func (r *Resource) Release(units int) {
	if units <= 0 {
		panic("sim: release of non-positive units")
	}
	if units > r.inUse {
		panic("sim: release exceeds units in use")
	}
	r.inUse -= units
	if invariant.On {
		ckResOccupancy.Assert(r.inUse >= 0 && r.Waiting() >= 0,
			"in use %d, waiting %d", r.inUse, r.Waiting())
	}
	for r.Waiting() > 0 {
		head := r.waiters[r.head]
		if r.inUse+head.units > r.capacity {
			break
		}
		r.inUse += head.units
		r.popWaiter()
		if invariant.On {
			ckResBound.Assert(r.inUse <= r.capacity,
				"in use %d exceeds capacity %d after admitting waiter", r.inUse, r.capacity)
		}
		r.eng.Immediately(head.fn)
	}
}

// Resize changes the capacity. Growing admits queued waiters; shrinking below
// the units in use is allowed (the overage drains as holders release).
func (r *Resource) Resize(capacity int) {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	r.capacity = capacity
	// Admit whoever now fits.
	for r.Waiting() > 0 {
		head := r.waiters[r.head]
		if head.units > r.capacity || r.inUse+head.units > r.capacity {
			break
		}
		r.inUse += head.units
		r.popWaiter()
		r.eng.Immediately(head.fn)
	}
}
