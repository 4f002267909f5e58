package mem

import (
	"testing"

	"repro/internal/invariant"
)

// Seeded-bug tests for the LRU invariants: each plants a corruption a real
// accounting regression could introduce and requires detection.

// A page evicted from the list but left flagged resident (leaked residency)
// must fail both the O(1) exclusivity check and the structural audit.
func TestSeededBugLeakedResidencyCaught(t *testing.T) {
	ps := NewPageSet(8)
	for i := int32(0); i < 4; i++ {
		ps.MakeResident(i, 0)
	}
	// The seeded bug: drop page 1 off its list without clearing Resident or
	// the resident counters.
	ps.remove(&ps.inactive, 1)
	ps.pages[1].list = onNone

	if err := ps.Audit(); err == nil {
		t.Fatal("audit missed a resident page on no LRU list")
	}

	var violations []invariant.Violation
	restore := invariant.SetHandler(func(v invariant.Violation) { violations = append(violations, v) })
	defer restore()
	invariant.Enable()
	defer invariant.Disable()
	ps.MakeResident(5, 0) // any LRU mutation re-evaluates the conservation law
	found := false
	for _, v := range violations {
		if v.Check == "mem.lru.exclusive" {
			found = true
		}
	}
	if !found {
		t.Fatalf("exclusivity check missed the leak; violations: %+v", violations)
	}
}

// A page pushed onto both lists (double insertion) must fail the audit.
func TestSeededBugDoubleListedPageCaught(t *testing.T) {
	ps := NewPageSet(8)
	ps.MakeResident(0, 0)
	ps.MakeResident(1, 0)
	// The seeded bug: page 0 also inserted into the active list.
	ps.pushFront(&ps.active, 0)
	if err := ps.Audit(); err == nil {
		t.Fatal("audit missed a page on both LRU lists")
	}
}

// A drifted per-type resident counter must fail the counts check on the
// next mutation.
func TestSeededBugTypeCounterDriftCaught(t *testing.T) {
	ps := NewPageSet(8)
	ps.MakeResident(0, 0)
	// The seeded bug: a phantom resident file page.
	ps.residentByType[FileBacked]++
	var violations []invariant.Violation
	restore := invariant.SetHandler(func(v invariant.Violation) { violations = append(violations, v) })
	defer restore()
	invariant.Enable()
	defer invariant.Disable()
	ps.Touch(0, false)
	found := false
	for _, v := range violations {
		if v.Check == "mem.lru.resident-counts" {
			found = true
		}
	}
	if !found {
		t.Fatalf("resident-counts check missed the drift; violations: %+v", violations)
	}
}
