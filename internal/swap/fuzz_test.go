package swap

import (
	"testing"
)

// FuzzSlotAllocator: an arbitrary operation stream (assign / drop-all /
// cluster, driven by fuzzed bytes) keeps the allocator's
// structural state sound — seq↔slotOf stay a bijection, the live count
// matches a recount, the free pool never double-holds a slot, and Cluster
// only returns pages that pass its filter. Mirrors the op-stream style of
// internal/trace's fuzz target.
func FuzzSlotAllocator(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0x40, 1, 0x80, 0xC1, 2})
	f.Add([]byte{0xFF, 0xFF, 0xFF})
	f.Add([]byte{0, 0, 0, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		const pages = 64
		a := NewSlotAllocator(pages)
		for _, b := range data {
			page := int32(b & 0x3F) // low bits pick the page
			switch b >> 6 {         // high bits pick the operation
			case 0, 1:
				slot := a.Assign(page)
				if a.slotOf[page] != slot || slot < 0 {
					t.Fatalf("Assign(%d) = %d but slotOf = %d", page, slot, a.slotOf[page])
				}
			case 2:
				if a.DropAll(); a.Live() != 0 {
					t.Fatalf("DropAll left %d live slots", a.Live())
				}
			case 3:
				got := a.Cluster(nil, page, 8, func(id int32) bool { return a.slotOf[id] >= 0 })
				if len(got) == 0 || got[0] != page {
					t.Fatalf("Cluster(%d) = %v; faulting page must lead", page, got)
				}
				for _, id := range got[1:] {
					if a.slotOf[id] < 0 {
						t.Fatalf("Cluster(%d) returned filtered-out page %d", page, id)
					}
				}
			}
			if a.Live() < 0 || a.Live() > len(a.seq) {
				t.Fatalf("live %d outside [0, %d]", a.Live(), len(a.seq))
			}
		}
		if err := a.Audit(); err != nil {
			t.Fatalf("final state corrupt after %d ops: %v", len(data), err)
		}
	})
}
