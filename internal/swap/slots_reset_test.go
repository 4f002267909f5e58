package swap

import (
	"math/rand"
	"slices"
	"testing"
)

// slotChurn replays a random assign/drop history over the
// allocator's pages and returns every slot index and readahead cluster it
// observed, so two allocators can be compared by behavior.
func slotChurn(a *SlotAllocator, rng *rand.Rand, ops int) []int32 {
	n := int32(len(a.slotOf))
	var seen []int32
	for i := 0; i < ops; i++ {
		page := rng.Int31n(n)
		switch k := rng.Intn(20); {
		case k < 18:
			seen = append(seen, a.Assign(page))
		case k < 19:
			seen = a.Cluster(seen, page, 8, func(id int32) bool { return id%3 != 0 })
		default:
			a.DropAll()
		}
	}
	return seen
}

// sameSlots reports whether two allocators hold the same state; nil and
// empty slices count as equal.
func sameSlots(a, b *SlotAllocator) bool {
	return slices.Equal(a.seq, b.seq) && slices.Equal(a.slotOf, b.slotOf) &&
		slices.Equal(a.free, b.free) && a.live == b.live
}

// Reset after arbitrary use, shrinking and then growing past the original
// size, leaves exactly what NewSlotAllocator builds, and the reset
// allocator then hands out the same slots and clusters as a fresh one.
func TestSlotAllocatorResetMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := NewSlotAllocator(128)
	for _, n := range []int{128, 16, 300, 1, 64} {
		slotChurn(a, rng, 800)
		a.Reset(n)
		if err := a.Audit(); err != nil {
			t.Fatalf("n=%d: reset allocator fails audit: %v", n, err)
		}
		fresh := NewSlotAllocator(n)
		if !sameSlots(a, fresh) {
			t.Fatalf("n=%d: reset allocator differs from NewSlotAllocator", n)
		}
		seed := rng.Int63()
		got := slotChurn(a, rand.New(rand.NewSource(seed)), 400)
		want := slotChurn(fresh, rand.New(rand.NewSource(seed)), 400)
		if !slices.Equal(got, want) || !sameSlots(a, fresh) {
			t.Fatalf("n=%d: reset allocator diverges from a fresh one under the same ops", n)
		}
	}
}

// Cluster appends to the caller's slice and leaves its prefix alone.
func TestClusterAppendsToDst(t *testing.T) {
	a := NewSlotAllocator(8)
	for p := int32(0); p < 8; p++ {
		a.Assign(p)
	}
	dst := []int32{42}
	got := a.Cluster(dst, 5, 4, func(int32) bool { return true })
	if want := []int32{42, 5, 4, 6, 7}; !slices.Equal(got, want) {
		t.Fatalf("Cluster = %v, want %v", got, want)
	}
}
