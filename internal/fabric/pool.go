package fabric

import (
	"fmt"

	"repro/internal/invariant"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Registered invariants for the pool ledger — the CXL DCD contract. A slab
// is granted to at most one host at a time (no double-grant), the granted
// total never exceeds capacity, and the per-host residency counters always
// equal a recount of the ownership table (conservation).
var (
	ckPoolDoubleGrant = invariant.Register("fabric.pool.no-double-grant")
	ckPoolCapacity    = invariant.Register("fabric.pool.grants-within-capacity")
	ckPoolResidency   = invariant.Register("fabric.pool.host-residency")
)

// poolFree marks an unowned slab in the ownership table.
const poolFree = -1

// Pool is the switch's DCD slab ledger: a fixed array of slabs, each owned
// by at most one host port. Grants hand out the lowest-indexed free slabs
// and reclaims free the lowest-indexed owned ones, so every ledger state is
// a pure function of the operation history.
type Pool struct {
	name      string
	slabPages int
	// owner[s] is the host holding slab s, or poolFree.
	owner []int
	// perHost[h] counts slabs granted to host h (the O(1) conservation
	// counter the residency invariant checks against recounts).
	perHost []int
	free    int

	// Grants and Reclaims count ledger operations (slabs moved, not calls).
	Grants   uint64
	Reclaims uint64

	// Observability handle, resolved once at construction (nil when off).
	rec        *obs.Recorder
	track      string
	obsGranted *metrics.BucketTimeline
}

// NewPool builds a ledger of slabs×slabPages pooled pages shared by hosts
// ports. A zero-slab pool is valid: every grant request returns 0 (pooling
// off).
func NewPool(eng *sim.Engine, name string, hosts, slabs, slabPages int) *Pool {
	if hosts < 1 {
		panic(fmt.Sprintf("fabric: pool %q with %d hosts", name, hosts))
	}
	if slabs < 0 || slabPages < 1 {
		panic(fmt.Sprintf("fabric: pool %q with %d slabs of %d pages", name, slabs, slabPages))
	}
	p := &Pool{
		name:      name,
		slabPages: slabPages,
		owner:     make([]int, slabs),
		perHost:   make([]int, hosts),
		free:      slabs,
	}
	for i := range p.owner {
		p.owner[i] = poolFree
	}
	if obs.On {
		if r := obs.Rec(eng); r != nil {
			p.rec = r
			p.track = "fabric/" + name
			p.obsGranted = r.Timeline(p.track+"/granted-slabs", obs.ModeMean)
			r.OnSeal(func() {
				r.Counter(p.track + "/grants").Add(float64(p.Grants))
				r.Counter(p.track + "/reclaims").Add(float64(p.Reclaims))
				r.Gauge(p.track + "/granted-slabs").Set(float64(len(p.owner) - p.free))
			})
		}
	}
	return p
}

// Name reports the ledger's name.
func (p *Pool) Name() string { return p.name }

// Capacity reports the total slab count.
func (p *Pool) Capacity() int { return len(p.owner) }

// SlabPages reports the grant granularity in pages.
func (p *Pool) SlabPages() int { return p.slabPages }

// FreeSlabs reports unowned slabs.
func (p *Pool) FreeSlabs() int { return p.free }

// FreePages reports unowned pooled capacity in pages.
func (p *Pool) FreePages() int { return p.free * p.slabPages }

// Granted reports the slabs currently owned by host h.
func (p *Pool) Granted(h int) int { return p.perHost[h] }

// Owner reports which host owns slab s (or -1 when free) — the ledger view
// the conformance harness compares across replays.
func (p *Pool) Owner(s int) int { return p.owner[s] }

// Grant hands the n lowest-indexed free slabs to host h and returns how
// many it actually granted (short when the pool runs dry). Grant order is a
// pure function of ledger state, so any replay of the same operation
// history lands every slab identically.
func (p *Pool) Grant(h, n int) int {
	p.checkHost(h)
	if n <= 0 {
		return 0
	}
	granted := 0
	for s := 0; s < len(p.owner) && granted < n; s++ {
		if p.owner[s] != poolFree {
			continue
		}
		p.grantSlab(s, h)
		granted++
	}
	p.perHost[h] += granted
	p.free -= granted
	p.Grants += uint64(granted)
	p.checkLedger(h)
	if p.obsGranted != nil {
		p.obsGranted.Add(p.rec.Now(), float64(len(p.owner)-p.free))
	}
	return granted
}

// Reclaim returns up to n of host h's slabs (lowest index first) to the
// free set, reporting how many it actually reclaimed.
func (p *Pool) Reclaim(h, n int) int {
	p.checkHost(h)
	if n <= 0 {
		return 0
	}
	reclaimed := 0
	for s := 0; s < len(p.owner) && reclaimed < n; s++ {
		if p.owner[s] != h {
			continue
		}
		p.owner[s] = poolFree
		reclaimed++
	}
	p.perHost[h] -= reclaimed
	p.free += reclaimed
	p.Reclaims += uint64(reclaimed)
	p.checkLedger(h)
	if p.obsGranted != nil {
		p.obsGranted.Add(p.rec.Now(), float64(len(p.owner)-p.free))
	}
	return reclaimed
}

// Audit recounts the ownership table against the O(1) counters — the
// structural check behind the residency invariant, callable from tests and
// the conformance harness at any quiescent point.
func (p *Pool) Audit() error {
	free := 0
	perHost := make([]int, len(p.perHost))
	for s, h := range p.owner {
		switch {
		case h == poolFree:
			free++
		case h >= 0 && h < len(p.perHost):
			perHost[h]++
		default:
			return fmt.Errorf("pool %q audit: slab %d owned by unknown host %d", p.name, s, h)
		}
	}
	if free != p.free {
		return fmt.Errorf("pool %q audit: free counter %d, recount %d", p.name, p.free, free)
	}
	for h := range perHost {
		if perHost[h] != p.perHost[h] {
			return fmt.Errorf("pool %q audit: host %d residency counter %d, recount %d",
				p.name, h, p.perHost[h], perHost[h])
		}
	}
	if granted := len(p.owner) - free; granted < 0 || free > len(p.owner) {
		return fmt.Errorf("pool %q audit: %d granted of %d slabs", p.name, granted, len(p.owner))
	}
	return nil
}

// grantSlab is the single ownership-write path for grants: every slab
// handed out goes through here, so the no-double-grant invariant guards the
// actual mutation, not a copy of the scan condition above it.
func (p *Pool) grantSlab(s, h int) {
	if invariant.On {
		ckPoolDoubleGrant.Assert(p.owner[s] == poolFree,
			"pool %q slab %d granted to host %d while owned by host %d", p.name, s, h, p.owner[s])
	}
	p.owner[s] = h
}

func (p *Pool) checkHost(h int) {
	if h < 0 || h >= len(p.perHost) {
		panic(fmt.Sprintf("fabric: pool %q host %d out of range [0, %d)", p.name, h, len(p.perHost)))
	}
}

// checkLedger runs the cheap ledger invariants after a mutation on host h.
func (p *Pool) checkLedger(h int) {
	if !invariant.On {
		return
	}
	granted := len(p.owner) - p.free
	ckPoolCapacity.Assert(p.free >= 0 && granted >= 0 && granted <= len(p.owner),
		"pool %q granted %d of %d slabs (free %d)", p.name, granted, len(p.owner), p.free)
	sum := 0
	for _, n := range p.perHost {
		sum += n
	}
	ckPoolResidency.Assert(p.perHost[h] >= 0 && sum == granted,
		"pool %q residency sum %d vs granted %d (host %d holds %d)",
		p.name, sum, granted, h, p.perHost[h])
}
