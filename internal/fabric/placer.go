package fabric

import (
	"repro/internal/place"
)

// PoolExtender is the MIND-style in-fabric allocator, packaged as a place
// extender so the host-side policy pipeline can delegate the pooled-capacity
// decision to the switch. The host policy filters and scores as usual; the
// extender intervenes only when the policy's choice would borrow from the
// shared pool, re-targeting among the feasible candidates to put far
// residency where it strands the least pooled capacity:
//
//  1. a candidate whose private far capacity covers the request beats any
//     that would borrow from the pool, best-fit on the private leftover
//     (smallest leftover wins — big private holes stay open);
//  2. among candidates that must borrow, the fewest granted slabs wins;
//  3. ties break on the lowest candidate ID, like every other stage.
//
// A choice that fits privately is never overridden, so an empty pool makes
// the extender a strict no-op — the pool=0 ≡ static anchor the metamorphic
// suite locks. Pure and permutation-invariant: the choice depends only on
// (request, feasible set, ledger granularity), so -workers/-shards can
// never move it.
func PoolExtender(p *Pool) place.Extender {
	slabPages := p.SlabPages()
	return place.Extender{Extend: func(r place.Request, feasible []place.Candidate, chosen int) int {
		if r.FarPages <= 0 || chosen < 0 {
			return chosen
		}
		for _, c := range feasible {
			if c.ID == chosen && r.FarPages <= c.FarFree {
				return chosen // fits privately where the host policy put it
			}
		}
		best := -1
		var bestSlabs, bestLeft int
		for _, c := range feasible {
			spill := r.FarPages - c.FarFree
			slabs, left := 0, 0
			if spill > 0 {
				if r.FarPages > c.PoolFree {
					continue // cannot serve this candidate's spill from the pool
				}
				slabs = (r.FarPages + slabPages - 1) / slabPages
			} else {
				left = -spill // private leftover; smaller is a tighter fit
			}
			better := best < 0 ||
				slabs < bestSlabs ||
				(slabs == bestSlabs && left < bestLeft) ||
				(slabs == bestSlabs && left == bestLeft && c.ID < best)
			if better {
				best, bestSlabs, bestLeft = c.ID, slabs, left
			}
		}
		if best >= 0 {
			return best
		}
		return chosen
	}}
}
