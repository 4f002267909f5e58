package swap

import (
	"testing"

	"repro/internal/device"
	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/units"
)

func newAggregate(eng *sim.Engine, n int) (*AggregateBackend, *device.Host) {
	h := device.NewHost(eng, pcie.Gen4, 16)
	members := make([]*DeviceBackend, n)
	for i := range members {
		members[i] = NewDeviceBackend(eng, h.Attach(device.SpecNVMeSSD("nvme")))
	}
	return NewAggregateBackend(eng, "xdm-ssd", members...), h
}

func TestAggregateBandwidthSums(t *testing.T) {
	eng := sim.NewEngine()
	agg, _ := newAggregate(eng, 4)
	if got := agg.Bandwidth().GB(); got < 31 || got > 33 {
		t.Fatalf("aggregate bandwidth %.1f GB/s, want ~31.6 (4x7.9, Table IV)", got)
	}
	width := 0
	for _, m := range agg.Members() {
		width += m.dev.Channels()
	}
	if width != 4*8 {
		t.Fatalf("aggregate width %d", width)
	}
}

func TestAggregateStripesLargeExtents(t *testing.T) {
	eng := sim.NewEngine()
	agg, _ := newAggregate(eng, 4)
	agg.Submit(Extent{Pages: 64, Sequential: true}, nil)
	eng.Run()
	for i, m := range agg.Members() {
		if m.Device().TotalBytes() != float64(16*units.PageSize) {
			t.Fatalf("member %d moved %v bytes, want even stripe", i, m.Device().TotalBytes())
		}
	}
}

func TestAggregateRoutesSmallExtentsToOneMember(t *testing.T) {
	eng := sim.NewEngine()
	agg, _ := newAggregate(eng, 4)
	agg.Submit(Extent{Pages: 1}, nil)
	eng.Run()
	nonZero := 0
	for _, m := range agg.Members() {
		if m.Device().TotalBytes() > 0 {
			nonZero++
		}
	}
	if nonZero != 1 {
		t.Fatalf("single-page extent touched %d members, want 1", nonZero)
	}
}

func TestAggregateBalancesLoad(t *testing.T) {
	eng := sim.NewEngine()
	agg, _ := newAggregate(eng, 2)
	for i := 0; i < 16; i++ {
		agg.Submit(Extent{Pages: 1}, nil)
	}
	eng.Run()
	a := agg.Members()[0].Device().Ops.Value
	b := agg.Members()[1].Device().Ops.Value
	if a == 0 || b == 0 {
		t.Fatalf("load not balanced: %d vs %d ops", a, b)
	}
}

// The paper's core throughput claim at backend level: an aggregate of four
// devices moves bulk data ~4x faster than one device.
func TestAggregateThroughputScales(t *testing.T) {
	measure := func(n int) sim.Duration {
		eng := sim.NewEngine()
		agg, _ := newAggregate(eng, n)
		var last sim.Duration
		const extents = 64
		doneCount := 0
		for i := 0; i < extents; i++ {
			agg.Submit(Extent{Pages: 256, Sequential: true}, func(l sim.Duration) {
				doneCount++
			})
		}
		eng.Run()
		if doneCount != extents {
			t.Fatalf("only %d extents completed", doneCount)
		}
		last = sim.Duration(eng.Now())
		return last
	}
	one, four := measure(1), measure(4)
	speedup := float64(one) / float64(four)
	if speedup < 3.0 || speedup > 4.5 {
		t.Fatalf("4-device aggregate speedup %.2f, want ~4", speedup)
	}
}

func TestAggregateHeteroKindAndCost(t *testing.T) {
	eng := sim.NewEngine()
	h := device.NewHost(eng, pcie.Gen4, 16)
	ssd := NewDeviceBackend(eng, h.Attach(device.SpecNVMeSSD("nvme")))
	rdma := NewDeviceBackend(eng, h.Attach(device.SpecConnectX5("cx5")))
	agg := NewAggregateBackend(eng, "xdm-hetero", ssd, rdma)
	if agg.Kind() != device.RDMA {
		t.Fatalf("hetero kind %v, want rdma (fastest member)", agg.Kind())
	}
	cost := agg.CostPerGB()
	if cost <= ssd.CostPerGB() || cost >= rdma.CostPerGB() {
		t.Fatalf("hetero cost %.3f not between members", cost)
	}
	if agg.Name() != "xdm-hetero" {
		t.Fatal("name wrong")
	}
}

func TestAggregateSetWidthDistributes(t *testing.T) {
	eng := sim.NewEngine()
	agg, _ := newAggregate(eng, 4)
	agg.SetWidth(8)
	for _, m := range agg.Members() {
		if got := m.dev.Channels(); got != 2 {
			t.Fatalf("member width %d, want 2", got)
		}
	}
	agg.SetWidth(1) // clamped to 1 per member
	for _, m := range agg.Members() {
		if got := m.dev.Channels(); got != 1 {
			t.Fatalf("member width %d, want 1", got)
		}
	}
}

func TestAggregateRequiresMembers(t *testing.T) {
	eng := sim.NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("empty aggregate did not panic")
		}
	}()
	NewAggregateBackend(eng, "empty")
}
