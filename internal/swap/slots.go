package swap

import (
	"fmt"

	"repro/internal/invariant"
)

// Registered invariants for the slot allocator: a slot recycled from the
// free pool must be stale (no double-alloc handing one slot to two pages),
// and the live count can never go negative or exceed the slot span. Audit()
// proves the full bijection.
var (
	ckSlotAlloc = invariant.Register("swap.slots.no-double-alloc")
	ckSlotLive  = invariant.Register("swap.slots.live-in-range")
)

// SlotAllocator manages a swap device's slot space the way the kernel's
// swap_map does: slots are handed out in scan order (so write-back order
// determines slot adjacency), freed slots are recycled lazily, and the
// allocator can answer "which pages live in the slot cluster around slot
// s?" — the exact question swap readahead asks.
//
// Slot adjacency equals eviction-time adjacency. For a single sequential
// evictor, slot clusters coincide with address clusters; with many threads
// interleaving evictions, clusters become a shuffle of all their streams.
// That difference is why kernel swap readahead degrades under concurrency
// while an address-space reader does not.
type SlotAllocator struct {
	// seq is the slot array: seq[slot] = page id, or -1 when stale/free.
	seq []int32
	// slotOf maps page id → its current slot (-1 = none).
	slotOf []int32
	// live counts non-stale slots, for occupancy reporting.
	live int
	// free holds recycled slot indices awaiting reuse.
	free []int32
}

// NewSlotAllocator creates an allocator for an address space of n pages.
func NewSlotAllocator(n int) *SlotAllocator {
	a := &SlotAllocator{}
	a.Reset(n)
	return a
}

// Reset returns the allocator to the state NewSlotAllocator(n) builds,
// reusing its backing arrays.
func (a *SlotAllocator) Reset(n int) {
	if cap(a.slotOf) < n {
		a.slotOf = make([]int32, n)
	}
	a.slotOf = a.slotOf[:n]
	for i := range a.slotOf {
		a.slotOf[i] = -1
	}
	a.seq = a.seq[:0]
	a.free = a.free[:0]
	a.live = 0
}

// Assign gives page its next slot (recycling a freed slot when available),
// invalidating any previous slot the page held. It returns the slot index.
func (a *SlotAllocator) Assign(page int32) int32 {
	if old := a.slotOf[page]; old >= 0 {
		a.seq[old] = -1
		a.live--
	}
	var slot int32
	if len(a.free) > 0 {
		slot = a.free[len(a.free)-1]
		a.free = a.free[:len(a.free)-1]
		if invariant.On {
			ckSlotAlloc.Assert(a.seq[slot] < 0,
				"recycling slot %d still held by page %d", slot, a.seq[slot])
		}
		a.seq[slot] = page
	} else {
		slot = int32(len(a.seq))
		a.seq = append(a.seq, page)
	}
	a.slotOf[page] = slot
	a.live++
	if invariant.On {
		ckSlotLive.Assert(a.live >= 0 && a.live <= len(a.seq),
			"live %d outside [0, %d]", a.live, len(a.seq))
	}
	return slot
}

// DropAll reclaims every occupied slot exactly once — the backend-loss
// path: when the device holding the swap space dies, all far copies are
// gone and their slots return to the free pool. Already-free slots are
// untouched (no double-free), and every page's slot mapping is cleared.
// It returns the number of slots reclaimed.
func (a *SlotAllocator) DropAll() int {
	n := 0
	for slot, page := range a.seq {
		if page < 0 {
			continue
		}
		a.seq[slot] = -1
		a.slotOf[page] = -1
		a.free = append(a.free, int32(slot))
		a.live--
		n++
	}
	if invariant.On {
		ckSlotLive.Assert(a.live == 0, "live %d after DropAll", a.live)
	}
	return n
}

// Audit verifies the allocator's full structural state: seq and slotOf are a
// mutual bijection over occupied slots, the live count matches a recount,
// and the free pool holds each stale slot at most once with no occupied
// slots in it. O(slots + pages); for tests and the metamorphic suite.
func (a *SlotAllocator) Audit() error {
	occupied := 0
	for slot, page := range a.seq {
		if page < 0 {
			continue
		}
		occupied++
		if int(page) >= len(a.slotOf) {
			return fmt.Errorf("swap audit: slot %d holds out-of-range page %d", slot, page)
		}
		if a.slotOf[page] != int32(slot) {
			return fmt.Errorf("swap audit: slot %d holds page %d, but slotOf[%d] = %d",
				slot, page, page, a.slotOf[page])
		}
	}
	for page, slot := range a.slotOf {
		if slot < 0 {
			continue
		}
		if int(slot) >= len(a.seq) {
			return fmt.Errorf("swap audit: page %d maps to out-of-range slot %d", page, slot)
		}
		if a.seq[slot] != int32(page) {
			return fmt.Errorf("swap audit: page %d maps to slot %d, but seq[%d] = %d",
				page, slot, slot, a.seq[slot])
		}
	}
	if occupied != a.live {
		return fmt.Errorf("swap audit: live counter %d, recount %d", a.live, occupied)
	}
	inFree := make(map[int32]bool, len(a.free))
	for _, slot := range a.free {
		if slot < 0 || int(slot) >= len(a.seq) {
			return fmt.Errorf("swap audit: free pool holds out-of-range slot %d", slot)
		}
		if inFree[slot] {
			return fmt.Errorf("swap audit: slot %d freed twice", slot)
		}
		inFree[slot] = true
		if a.seq[slot] >= 0 {
			return fmt.Errorf("swap audit: occupied slot %d (page %d) in free pool", slot, a.seq[slot])
		}
	}
	return nil
}

// Live reports the number of occupied slots.
func (a *SlotAllocator) Live() int { return a.live }

// Cluster appends to dst up to max pages from the aligned slot cluster
// around page's slot — kernel swap-readahead semantics — and returns the
// extended slice. The faulting page is always appended first. Pages failing
// the want filter (already resident, not swapped) are skipped. If the page
// has no slot, only the page itself is appended.
func (a *SlotAllocator) Cluster(dst []int32, page int32, max int, want func(int32) bool) []int32 {
	fetch := append(dst, page)
	si := a.slotOf[page]
	if si < 0 || max <= 1 {
		return fetch
	}
	base := si - si%int32(max)
	end := base + int32(max)
	if end > int32(len(a.seq)) {
		end = int32(len(a.seq))
	}
	for s := base; s < end && len(fetch)-len(dst) < max; s++ {
		id := a.seq[s]
		if id >= 0 && id != page && want(id) {
			fetch = append(fetch, id)
		}
	}
	return fetch
}
