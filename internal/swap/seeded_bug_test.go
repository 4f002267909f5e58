package swap

import (
	"strings"
	"testing"

	"repro/internal/invariant"
)

// These tests seed deliberate allocator bugs and require the invariant layer
// (or the structural audit) to catch each one — the acceptance proof that
// the checks detect real corruption, not just that they stay quiet on
// healthy runs.

// A double-free — the same slot pushed into the free pool twice — must be
// caught: first by the audit, then by the no-double-alloc check the moment
// both copies get recycled to different pages.
func TestSeededBugDoubleFreeCaught(t *testing.T) {
	a := NewSlotAllocator(8)
	for p := int32(0); p < 4; p++ {
		a.Assign(p)
	}
	a.DropAll()
	// The seeded bug: a second free of the last dropped slot.
	a.free = append(a.free, a.free[len(a.free)-1])
	if err := a.Audit(); err == nil {
		t.Fatal("audit missed a double-freed slot")
	} else if !strings.Contains(err.Error(), "freed twice") {
		t.Fatalf("audit reported the wrong defect: %v", err)
	}

	var violations []invariant.Violation
	restore := invariant.SetHandler(func(v invariant.Violation) { violations = append(violations, v) })
	defer restore()
	invariant.Enable()
	defer invariant.Disable()
	// Recycling both copies hands one slot to two pages; the second Assign
	// must trip swap.slots.no-double-alloc.
	a.Assign(5)
	a.Assign(6)
	if len(violations) == 0 {
		t.Fatal("no-double-alloc check missed one slot recycled to two pages")
	}
	if violations[0].Check != "swap.slots.no-double-alloc" {
		t.Fatalf("wrong check fired: %+v", violations[0])
	}
}

// Skipping a slot free — clearing the page mapping without returning the
// slot — leaves the bijection broken and the live counter wrong.
func TestSeededBugSkippedFreeCaught(t *testing.T) {
	a := NewSlotAllocator(8)
	for p := int32(0); p < 4; p++ {
		a.Assign(p)
	}
	// The seeded bug: a "release" that forgets seq and the free pool.
	a.slotOf[1] = -1
	if err := a.Audit(); err == nil {
		t.Fatal("audit missed a skipped slot free")
	}
}
