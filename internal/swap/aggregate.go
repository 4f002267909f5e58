package swap

import (
	"repro/internal/device"
	"repro/internal/sim"
	"repro/internal/units"
)

// AggregateBackend is xDM's scale-out far-memory path: one logical swap
// backend spread over several physical devices. Large extents are split
// across all members (device-level striping); small extents are routed to
// the least-loaded member. This is what lets a single server push past the
// single-device bandwidth wall toward the full PCIe fabric budget
// (Table VII).
type AggregateBackend struct {
	name    string
	members []*DeviceBackend
	eng     *sim.Engine

	// reads and writes are the member classes each direction uses (see
	// NewAggregateBackend).
	reads, writes []*DeviceBackend

	// free recycles striped-extent records (see stripedOp).
	free sim.FreeList[stripedOp]
}

// NewAggregateBackend combines members into one logical backend. Members
// may be homogeneous (xDM-SSD, xDM-RDMA) or mixed (xDM-Hetero).
//
// A heterogeneous aggregate is partitioned once, here: reads use the
// members within 4x of the lowest read latency, writes use the others.
// Homogeneous aggregates (or all-read/all-write classes) use every member
// in both directions.
func NewAggregateBackend(eng *sim.Engine, name string, members ...*DeviceBackend) *AggregateBackend {
	if len(members) == 0 {
		panic("swap: aggregate backend needs at least one member")
	}
	a := &AggregateBackend{name: name, members: members, eng: eng, reads: members, writes: members}
	minLat := members[0].Device().Spec().ReadLatency
	for _, m := range members[1:] {
		if l := m.Device().Spec().ReadLatency; l < minLat {
			minLat = l
		}
	}
	var fast, slow []*DeviceBackend
	for _, m := range members {
		if m.Device().Spec().ReadLatency <= 4*minLat {
			fast = append(fast, m)
		} else {
			slow = append(slow, m)
		}
	}
	if len(fast) > 0 && len(slow) > 0 {
		a.reads, a.writes = fast, slow
	}
	return a
}

// Members exposes the member backends.
func (a *AggregateBackend) Members() []*DeviceBackend { return a.members }

// Name implements Backend.
func (a *AggregateBackend) Name() string { return a.name }

// Kind implements Backend: the kind of the fastest member (used only for
// labeling; per-member behaviour is preserved internally).
func (a *AggregateBackend) Kind() device.Kind {
	best := a.members[0]
	for _, m := range a.members[1:] {
		if m.Device().Spec().ReadLatency < best.Device().Spec().ReadLatency {
			best = m
		}
	}
	return best.Kind()
}

// CostPerGB implements Backend: capacity-weighted mean member cost.
func (a *AggregateBackend) CostPerGB() float64 {
	var cost, cap float64
	for _, m := range a.members {
		c := float64(m.Device().Spec().Capacity)
		cost += m.CostPerGB() * c
		cap += c
	}
	return cost / cap
}

// Bandwidth implements Backend: the sum of member bandwidths.
func (a *AggregateBackend) Bandwidth() units.BytesPerSec {
	var sum units.BytesPerSec
	for _, m := range a.members {
		sum += m.Bandwidth()
	}
	return sum
}

// SetWidth implements Backend: the width is divided evenly across members.
func (a *AggregateBackend) SetWidth(w int) {
	per := w / len(a.members)
	if per < 1 {
		per = 1
	}
	for _, m := range a.members {
		m.SetWidth(per)
	}
}

// Submit implements Backend. On a heterogeneous aggregate, reads go to the
// low-latency member class and writes to the rest (latency-critical fetches
// on RDMA, asynchronous write-back absorbing SSD bandwidth) — the paper's
// observation that heterogeneous device mixes can beat homogeneous ones.
// Within the chosen class, extents of at least two pages per member are
// striped in parallel; smaller extents go to the least-loaded member.
func (a *AggregateBackend) Submit(ex Extent, done func(lat sim.Duration)) {
	if ex.Pages <= 0 {
		panic("swap: extent with no pages")
	}
	members := a.reads
	if ex.Write {
		members = a.writes
	}
	n := len(members)
	if n == 1 || ex.Pages < 2*n {
		a.leastLoadedOf(members).Submit(ex, done)
		return
	}
	r := a.free.Get()
	if r == nil {
		r = &stripedOp{a: a}
		r.memberFn = r.memberDone
	}
	r.start, r.remaining, r.done = a.eng.Now(), n, done
	base := ex.Pages / n
	extra := ex.Pages % n
	for i, m := range members {
		pages := base
		if i < extra {
			pages++
		}
		m.Submit(Extent{Pages: pages, Write: ex.Write, Sequential: ex.Sequential, OpID: ex.OpID}, r.memberFn)
	}
}

// stripedOp is one extent striped over several members; memberFn is bound
// once per record. An extent whose member never completes (a stalled
// device) keeps its record, which is then left to the GC.
type stripedOp struct {
	a         *AggregateBackend
	start     sim.Time
	remaining int
	done      func(lat sim.Duration)
	memberFn  func(lat sim.Duration)
}

// memberDone counts one finished member stripe. After the last one it
// recycles the record and then reports the extent: the listener may submit
// again and reuse this very record.
func (r *stripedOp) memberDone(sim.Duration) {
	r.remaining--
	if r.remaining != 0 {
		return
	}
	a, done := r.a, r.done
	lat := a.eng.Now().Sub(r.start)
	r.done = nil
	a.free.Put(r)
	if done != nil {
		done(lat)
	}
}

func (a *AggregateBackend) leastLoadedOf(members []*DeviceBackend) *DeviceBackend {
	best := members[0]
	for _, m := range members[1:] {
		if m.Pending() < best.Pending() {
			best = m
		}
	}
	return best
}
