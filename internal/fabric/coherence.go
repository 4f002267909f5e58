package fabric

import (
	"fmt"

	"repro/internal/sim"
)

// backInvalidation is the per-remote-sharer cost of a writer-epoch
// change on a shared fabric region: the switch's back-invalidation snoop
// plus the sharer's cacheline flush/refetch for the region's hot lines.
// CXL 3.0 back-invalidate is a sub-µs snoop per line; a region epoch
// touches a handful of lines, putting the per-sharer charge in single-digit
// microseconds.
const backInvalidation = 4 * sim.Microsecond

// Coherence models hardware-coherent shared regions on the switch (CXL 3.0
// shared FAM). The cost model is epoch-based: while one host writes, other
// sharers hold read copies for free; the first write by a *different* host
// opens a new writer epoch, and the switch back-invalidates every other
// sharer's copies — charged as backInvalidation × (sharers − 1). Only
// writes are charged. Every counter is a pure function of the charge
// history, so shared-region costs stay byte-identical across replays.
type Coherence struct {
	regions []*region
}

type region struct {
	sharers int
	writer  int // current writer epoch's host, or -1 before the first write
	epochs  uint64
	cost    sim.Duration
}

// NewCoherence builds a tracker charging backInvalidation per remote sharer
// per writer epoch.
func NewCoherence() *Coherence { return &Coherence{} }

// Region registers a shared region with the given sharer count and returns
// its id.
func (c *Coherence) Region(sharers int) int {
	if sharers < 1 {
		panic(fmt.Sprintf("fabric: shared region with %d sharers", sharers))
	}
	c.regions = append(c.regions, &region{sharers: sharers, writer: -1})
	return len(c.regions) - 1
}

// Charge records a write to region id by host and returns the coherence
// cost the write pays: zero for a same-writer write, one back-invalidation
// round (backInvalidation × remote sharers) when the write moves the region
// to a new writer epoch.
func (c *Coherence) Charge(id, host int) sim.Duration {
	r := c.regions[id]
	if r.writer == host {
		return 0
	}
	r.writer = host
	r.epochs++
	cost := backInvalidation * sim.Duration(r.sharers-1)
	r.cost += cost
	return cost
}

// TotalEpochs sums writer epochs across all regions.
func (c *Coherence) TotalEpochs() uint64 {
	var n uint64
	for _, r := range c.regions {
		n += r.epochs
	}
	return n
}

// TotalCost sums back-invalidation cost across all regions.
func (c *Coherence) TotalCost() sim.Duration {
	var d sim.Duration
	for _, r := range c.regions {
		d += r.cost
	}
	return d
}
