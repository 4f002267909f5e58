package swap

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// checkSlotInvariants verifies the allocator's internal consistency from the
// outside: slot mappings resolve both ways, occupancy matches Live, and the
// free pool never holds a slot twice (a double-free would eventually hand
// the same slot to two pages).
func checkSlotInvariants(t *testing.T, a *SlotAllocator, pages int32) {
	t.Helper()
	occupied := 0
	for p := int32(0); p < pages; p++ {
		if s := a.slotOf[p]; s >= 0 {
			occupied++
			if s >= int32(len(a.seq)) {
				t.Fatalf("page %d maps to slot %d beyond span %d", p, s, len(a.seq))
			}
		}
	}
	if occupied != a.Live() {
		t.Fatalf("pages with slots %d != Live %d", occupied, a.Live())
	}
	// Two pages must never share a slot.
	seen := make(map[int32]int32)
	for p := int32(0); p < pages; p++ {
		if s := a.slotOf[p]; s >= 0 {
			if prev, dup := seen[s]; dup {
				t.Fatalf("slot %d held by pages %d and %d", s, prev, p)
			}
			seen[s] = p
		}
	}
}

// Property (backend loss): whatever assign history precedes it,
// DropAll reclaims every occupied slot exactly once, never double-frees, and
// leaves the allocator fully consistent and reusable.
func TestSlotAllocatorDropAllProperty(t *testing.T) {
	const pages = 64
	f := func(ops []uint16, dropAt uint8) bool {
		a := NewSlotAllocator(pages)
		// Replay a random workload. Reassigning a mapped page leaves its old
		// slot stale (fragmentation, not reusable) rather than free — track
		// those separately.
		stale := 0
		for _, op := range ops {
			page := int32(op) % pages
			if a.slotOf[page] >= 0 {
				stale++
			}
			a.Assign(page)
		}
		checkSlotInvariants(t, a, pages)

		liveBefore := a.Live()
		spanBefore := len(a.seq)
		if n := a.DropAll(); n != liveBefore {
			t.Fatalf("DropAll reclaimed %d slots, %d were live", n, liveBefore)
		}
		if a.Live() != 0 {
			t.Fatalf("Live=%d after DropAll", a.Live())
		}
		for p := int32(0); p < pages; p++ {
			if a.slotOf[p] >= 0 {
				t.Fatalf("page %d still mapped after DropAll", p)
			}
		}
		// Dropping again must find nothing — the exactly-once guarantee.
		if n := a.DropAll(); n != 0 {
			t.Fatalf("second DropAll reclaimed %d slots, want 0", n)
		}
		checkSlotInvariants(t, a, pages)

		// Survivor consistency: the allocator keeps working after the loss,
		// recycling the freed (non-stale) slots instead of growing the slot
		// space.
		freeAvail := spanBefore - stale
		refill := int(dropAt)%pages + 1
		for p := 0; p < refill; p++ {
			a.Assign(int32(p))
		}
		checkSlotInvariants(t, a, pages)
		if a.Live() != refill {
			t.Fatalf("Live=%d after refill of %d", a.Live(), refill)
		}
		if refill <= freeAvail && len(a.seq) != spanBefore {
			t.Fatalf("slot span grew %d -> %d despite %d free slots",
				spanBefore, len(a.seq), freeAvail)
		}
		if freeAvail > 0 && len(a.seq) == spanBefore+refill {
			t.Fatal("refill did not recycle any dropped slot")
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Fatal(err)
	}
}
