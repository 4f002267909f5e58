package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPageSetLifecycle(t *testing.T) {
	ps := NewPageSet(10)
	if ps.Len() != 10 || ps.Resident() != 0 {
		t.Fatalf("fresh set: len=%d resident=%d", ps.Len(), ps.Resident())
	}
	ps.MakeResident(3, 0)
	if ps.Resident() != 1 || !ps.Page(3).Resident {
		t.Fatal("MakeResident failed")
	}
	if ps.inactive.size != 1 || ps.active.size != 0 {
		t.Fatal("new page should land on inactive list")
	}
	ps.Touch(3, false)
	if ps.active.size != 1 || ps.inactive.size != 0 {
		t.Fatal("touch should promote to active")
	}
	if dirty := ps.Evict(3); dirty {
		t.Fatal("clean page reported dirty")
	}
	if ps.Resident() != 0 {
		t.Fatal("evict did not decrement resident")
	}
}

func TestDirtyTracking(t *testing.T) {
	ps := NewPageSet(4)
	ps.MakeResident(0, 0)
	ps.Touch(0, true)
	if !ps.Page(0).Dirty {
		t.Fatal("write did not dirty page")
	}
	if !ps.Evict(0) {
		t.Fatal("dirty page reported clean at evict")
	}
	// Re-fault: dirty bit must have been cleared.
	ps.MakeResident(0, 0)
	if ps.Page(0).Dirty {
		t.Fatal("dirty bit survived eviction")
	}
}

func TestReclaimOrderIsLRU(t *testing.T) {
	ps := NewPageSet(8)
	for i := int32(0); i < 4; i++ {
		ps.MakeResident(i, 0)
	}
	// Touch 0 and 1 so they're active; 2 and 3 stay inactive with 2 older.
	ps.Touch(0, false)
	ps.Touch(1, false)
	got := ps.ReclaimCandidate()
	if got != 2 {
		t.Fatalf("reclaim candidate = %d, want 2 (coldest inactive)", got)
	}
	ps.Evict(2)
	if got := ps.ReclaimCandidate(); got != 3 {
		t.Fatalf("next candidate = %d, want 3", got)
	}
}

func TestReclaimRefillsFromActive(t *testing.T) {
	ps := NewPageSet(4)
	for i := int32(0); i < 4; i++ {
		ps.MakeResident(i, 0)
		ps.Touch(i, false) // all active
	}
	if ps.inactive.size != 0 {
		t.Fatal("setup: want empty inactive list")
	}
	got := ps.ReclaimCandidate()
	if got == -1 {
		t.Fatal("no candidate despite resident pages")
	}
	// balance() demotes from the active tail, so the first-touched page (0)
	// must be among the demoted; the returned candidate is the coldest.
	if got != 0 {
		t.Fatalf("candidate = %d, want 0 (oldest active)", got)
	}
}

func TestReclaimCandidateEmpty(t *testing.T) {
	ps := NewPageSet(2)
	if ps.ReclaimCandidate() != -1 {
		t.Fatal("empty set should have no candidate")
	}
}

func TestTypeCountsAndSetType(t *testing.T) {
	ps := NewPageSet(10)
	ps.SetType(0, 4, FileBacked)
	anon, file := 0, 0
	for i := int32(0); i < 10; i++ {
		if ps.Page(i).Type == Anonymous {
			anon++
		} else {
			file++
		}
	}
	if anon != 6 || file != 4 {
		t.Fatalf("anon=%d file=%d", anon, file)
	}
	ps.MakeResident(0, 0)
	if ps.residentByType[FileBacked] != 1 || ps.residentByType[Anonymous] != 0 {
		t.Fatal("resident count by type wrong after fault")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetType on resident page should panic")
		}
	}()
	ps.SetType(0, 1, Anonymous)
}

func TestColdestResidentOrder(t *testing.T) {
	ps := NewPageSet(6)
	for i := int32(0); i < 6; i++ {
		ps.MakeResident(i, 0)
	}
	// Touch 5,4 making them active; 0..3 inactive (0 coldest).
	ps.Touch(5, false)
	ps.Touch(4, false)
	var order []int32
	for id := ps.ReclaimCandidate(); id >= 0; id = ps.ReclaimCandidate() {
		order = append(order, id)
		ps.Evict(id)
	}
	if len(order) != 6 {
		t.Fatalf("visited %d pages, want 6", len(order))
	}
	if order[0] != 0 {
		t.Fatalf("coldest = %d, want 0", order[0])
	}
	last := order[len(order)-1]
	if last != 4 {
		t.Fatalf("hottest = %d, want 4 (most recently touched)", last)
	}
}

// Property: any interleaving of faults, touches, and evictions keeps the
// LRU bookkeeping consistent: list sizes sum to resident count, and every
// resident page is on exactly one list.
func TestLRUConsistencyProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		const n = 32
		ps := NewPageSet(n)
		for _, op := range ops {
			id := int32(op % n)
			switch (op / n) % 3 {
			case 0:
				if !ps.Page(id).Resident {
					ps.MakeResident(id, 0)
				}
			case 1:
				if ps.Page(id).Resident {
					ps.Touch(id, op%2 == 0)
				}
			case 2:
				if ps.Page(id).Resident {
					ps.Evict(id)
				}
			}
			if ps.active.size+ps.inactive.size != ps.Resident() {
				return false
			}
		}
		// Walk both lists and verify counts.
		return ps.Audit() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(31))}); err != nil {
		t.Fatal(err)
	}
}

func TestNUMABindLocal(t *testing.T) {
	topo := NewTopology(2)
	// Fill node 0.
	if n := topo.Allocate(BindLocal); n != 0 {
		t.Fatalf("alloc 1 on node %d", n)
	}
	if n := topo.Allocate(BindLocal); n != 0 {
		t.Fatalf("alloc 2 on node %d", n)
	}
	// Node 0 full: spills to node 1.
	if n := topo.Allocate(BindLocal); n != 1 {
		t.Fatalf("spill went to node %d, want 1", n)
	}
	topo.Release(0)
	if topo.Nodes[0].UsedPages != 1 {
		t.Fatal("release did not return page")
	}
}

func TestNUMAInterleave(t *testing.T) {
	topo := NewTopology(4)
	counts := map[int8]int{}
	for i := 0; i < 6; i++ {
		counts[topo.Allocate(Interleave)]++
	}
	if counts[0] != 3 || counts[1] != 3 {
		t.Fatalf("interleave counts=%v, want 3/3", counts)
	}
}

func TestNUMAPreferRemote(t *testing.T) {
	topo := NewTopology(2)
	if n := topo.Allocate(PreferRemote); n != 1 {
		t.Fatalf("prefer-remote allocated on node %d, want 1", n)
	}
}

func TestNUMAExhaustion(t *testing.T) {
	topo := NewTopology(1)
	topo.Allocate(BindLocal)
	topo.Allocate(BindLocal)
	if n := topo.Allocate(BindLocal); n != -1 {
		t.Fatalf("allocation on full topology returned %d", n)
	}
	if totalFree(topo) != 0 {
		t.Fatal("total free pages wrong")
	}
}

func totalFree(topo *Topology) int {
	free := 0
	for i := range topo.Nodes {
		free += topo.Nodes[i].Free()
	}
	return free
}

func TestNUMAAccessLatency(t *testing.T) {
	topo := NewTopology(10)
	topo.AddCXLNode(10)
	local := topo.AccessLatency(0)
	remote := topo.AccessLatency(1)
	cxl := topo.AccessLatency(2)
	if !(local < remote && remote < cxl) {
		t.Fatalf("latency ordering violated: local=%v remote=%v cxl=%v", local, remote, cxl)
	}
}

// Property: allocations never exceed node capacities and Release restores
// free counts exactly.
func TestNUMAConservationProperty(t *testing.T) {
	f := func(policySeeds []uint8) bool {
		topo := NewTopology(16)
		var held []int8
		for _, s := range policySeeds {
			policy := NUMAPolicy(s % 3)
			if n := topo.Allocate(policy); n >= 0 {
				held = append(held, n)
			}
			for i := range topo.Nodes {
				if topo.Nodes[i].UsedPages > topo.Nodes[i].CapacityPages {
					return false
				}
			}
		}
		for _, n := range held {
			topo.Release(n)
		}
		return totalFree(topo) == 32
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(32))}); err != nil {
		t.Fatal(err)
	}
}

func TestCgroupRatio(t *testing.T) {
	ps := NewPageSet(100)
	cg := NewCgroupRatio(ps, 0.3)
	if cg.LimitPages != 30 {
		t.Fatalf("limit=%d, want 30", cg.LimitPages)
	}
}

func TestCgroupClamping(t *testing.T) {
	ps := NewPageSet(100)
	lo := NewCgroupRatio(ps, -1)
	if lo.LimitPages != 5 {
		t.Fatalf("clamped low limit=%d, want 5", lo.LimitPages)
	}
	hi := NewCgroupRatio(ps, 2)
	if hi.LimitPages != 100 {
		t.Fatalf("clamped high limit=%d, want 100", hi.LimitPages)
	}
}

func TestNUMAPolicyStrings(t *testing.T) {
	if BindLocal.String() != "bind-local" || Interleave.String() != "interleave" ||
		PreferRemote.String() != "prefer-remote" || NUMAPolicy(9).String() != "unknown" {
		t.Fatal("policy strings wrong")
	}
	if Anonymous.String() != "anon" || FileBacked.String() != "file" {
		t.Fatal("page type strings wrong")
	}
}
