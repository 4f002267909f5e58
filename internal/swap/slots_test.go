package swap

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSlotAssignRecycle(t *testing.T) {
	a := NewSlotAllocator(16)
	s0 := a.Assign(3)
	if s0 != 0 || a.slotOf[3] != 0 || a.Live() != 1 {
		t.Fatalf("first assign: slot=%d live=%d", s0, a.Live())
	}
	s1 := a.Assign(5)
	if s1 != 1 {
		t.Fatalf("second assign slot=%d", s1)
	}
	if n := a.DropAll(); n != 2 || a.slotOf[3] != -1 || a.Live() != 0 {
		t.Fatalf("drop freed %d slots, live %d", n, a.Live())
	}
	// Dropped slots are reused before the slot space grows.
	if s2 := a.Assign(7); s2 > 1 || len(a.seq) != 2 {
		t.Fatalf("recycle: slot=%d span=%d", s2, len(a.seq))
	}
	// A second drop frees only what is live.
	if n := a.DropAll(); n != 1 || a.Live() != 0 {
		t.Fatalf("second drop freed %d slots, live %d", n, a.Live())
	}
}

func TestSlotReassignInvalidatesOld(t *testing.T) {
	a := NewSlotAllocator(8)
	a.Assign(1)
	a.Assign(2)
	a.Assign(1) // page 1 re-swapped: new slot, old slot stale
	cluster := a.Cluster(nil, 2, 4, func(int32) bool { return true })
	for _, p := range cluster[1:] {
		if p == 1 && a.slotOf[1] < 2 {
			t.Fatal("stale slot entry surfaced in a cluster")
		}
	}
	if a.Live() != 2 {
		t.Fatalf("live=%d, want 2", a.Live())
	}
}

func TestSlotClusterSequentialEvictor(t *testing.T) {
	// One sequential evictor: slot clusters == address clusters.
	a := NewSlotAllocator(64)
	for p := int32(0); p < 32; p++ {
		a.Assign(p)
	}
	got := a.Cluster(nil, 8, 8, func(int32) bool { return true })
	if len(got) != 8 {
		t.Fatalf("cluster size %d, want 8", len(got))
	}
	seen := map[int32]bool{}
	for _, p := range got {
		seen[p] = true
	}
	for p := int32(8); p < 16; p++ {
		if !seen[p] {
			t.Fatalf("sequential cluster missing page %d: %v", p, got)
		}
	}
}

func TestSlotClusterInterleavedEvictors(t *testing.T) {
	// Two interleaved evictors: each cluster mixes both streams.
	a := NewSlotAllocator(64)
	for i := int32(0); i < 16; i++ {
		a.Assign(i)      // stream A: pages 0..15
		a.Assign(32 + i) // stream B: pages 32..47
	}
	got := a.Cluster(nil, 4, 8, func(int32) bool { return true })
	var fromA, fromB int
	for _, p := range got {
		if p < 32 {
			fromA++
		} else {
			fromB++
		}
	}
	if fromA == 0 || fromB == 0 {
		t.Fatalf("interleaved cluster should mix streams: %v", got)
	}
}

func TestSlotClusterNoSlot(t *testing.T) {
	a := NewSlotAllocator(8)
	got := a.Cluster(nil, 3, 8, func(int32) bool { return true })
	if len(got) != 1 || got[0] != 3 {
		t.Fatalf("slotless cluster = %v", got)
	}
}

// Property: any assign/drop sequence keeps the mapping bijective on live
// entries and conserves counts.
func TestSlotAllocatorProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		const n = 64
		a := NewSlotAllocator(n)
		for _, op := range ops {
			page := int32(op % n)
			if op&0x8000 != 0 {
				a.DropAll()
			} else {
				a.Assign(page)
			}
			// Invariants: slotOf and seq agree; live matches.
			live := 0
			for p := int32(0); p < n; p++ {
				if s := a.slotOf[p]; s >= 0 {
					live++
					if s >= int32(len(a.seq)) || a.seq[s] != p {
						return false
					}
				}
			}
			if live != a.Live() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(111))}); err != nil {
		t.Fatal(err)
	}
}
