package swap

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/device"
	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/units"
)

func newRDMABackend(eng *sim.Engine) *DeviceBackend {
	h := device.NewHost(eng, pcie.Gen4, 16)
	return NewDeviceBackend(eng, h.Attach(device.SpecConnectX5("rdma0")))
}

func newSSDBackend(eng *sim.Engine) *DeviceBackend {
	h := device.NewHost(eng, pcie.Gen3, 16)
	return NewDeviceBackend(eng, h.Attach(device.SpecTestbedSSD("ssd0")))
}

func TestBackendSinglePage(t *testing.T) {
	eng := sim.NewEngine()
	b := newRDMABackend(eng)
	b.SetWidth(1)
	var lat sim.Duration
	b.Submit(Extent{Pages: 1, Sequential: true}, func(l sim.Duration) { lat = l })
	eng.Run()
	// 3µs + 4KiB at the 5 GB/s channel cap ≈ 3.82µs, no width overhead at
	// width 1.
	if got := lat.Microseconds(); math.Abs(got-3.82) > 0.1 {
		t.Fatalf("latency %.3fµs, want ~3.82µs", got)
	}
}

func TestBackendStripingSpeedsUpLargeExtents(t *testing.T) {
	measure := func(width int) sim.Duration {
		eng := sim.NewEngine()
		b := newRDMABackend(eng)
		b.SetWidth(width)
		var lat sim.Duration
		b.Submit(Extent{Pages: 64, Sequential: true}, func(l sim.Duration) { lat = l })
		eng.Run()
		return lat
	}
	w1, w4 := measure(1), measure(4)
	if w4 >= w1 {
		t.Fatalf("width 4 (%v) not faster than width 1 (%v) for 64-page extent", w4, w1)
	}
}

func TestWidthOverheadHurtsSinglePageOps(t *testing.T) {
	measure := func(width int) sim.Duration {
		eng := sim.NewEngine()
		b := newSSDBackend(eng)
		b.SetWidth(width)
		var lat sim.Duration
		b.Submit(Extent{Pages: 1, Sequential: false}, func(l sim.Duration) { lat = l })
		eng.Run()
		return lat
	}
	w1, w8 := measure(1), measure(8)
	if w8 <= w1 {
		t.Fatalf("width 8 single-page op (%v) should be slower than width 1 (%v)", w8, w1)
	}
}

func TestBackendWidthClamp(t *testing.T) {
	eng := sim.NewEngine()
	b := newSSDBackend(eng)
	b.SetWidth(0)
	if got := b.dev.Channels(); got != 1 {
		t.Fatalf("width clamped to %d, want 1", got)
	}
}

func TestBackendMetadata(t *testing.T) {
	eng := sim.NewEngine()
	b := newSSDBackend(eng)
	if b.Kind() != device.SSD || b.Name() != "ssd0" {
		t.Fatal("metadata wrong")
	}
	if b.CostPerGB() <= 0 || b.Bandwidth() <= 0 {
		t.Fatal("cost/bandwidth missing")
	}
	if b.Device() == nil {
		t.Fatal("device accessor nil")
	}
}

func TestChannelContention(t *testing.T) {
	eng := sim.NewEngine()
	ch := NewChannel(eng, "shared", 1)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		ch.Enter(func() {
			order = append(order, i)
			eng.After(100, ch.Leave)
		})
	}
	eng.Run()
	if len(order) != 3 || order[0] != 0 || order[2] != 2 {
		t.Fatalf("order=%v", order)
	}
	if ch.Ops != 3 {
		t.Fatalf("ops=%d", ch.Ops)
	}
	// Ops 2 and 3 waited 100 and 200: mean (0+100+200)/3 = 100.
	if ch.MeanQueueWait() != 100 {
		t.Fatalf("mean wait=%v, want 100", ch.MeanQueueWait())
	}
}

func TestPathBypassVsHierarchical(t *testing.T) {
	measure := func(hierarchical bool) sim.Duration {
		eng := sim.NewEngine()
		b := newRDMABackend(eng)
		b.SetWidth(1)
		ch := NewChannel(eng, "ch", 4)
		var p *Path
		if hierarchical {
			p = NewHierarchicalPath(eng, b, ch, NewHostSwapStage(eng, DefaultHostWorkers))
		} else {
			p = NewPath(eng, b, ch)
		}
		var lat sim.Duration
		p.SwapIn(Extent{Pages: 1, Sequential: true}, func(l sim.Duration) { lat = l })
		eng.Run()
		return lat
	}
	bypass, hier := measure(false), measure(true)
	diff := hier - bypass
	want := HostHopOverhead + HostCopyPerPage
	if math.Abs(float64(diff-want)) > float64(100*sim.Nanosecond) {
		t.Fatalf("hierarchical penalty %v, want ~%v (bypass=%v hier=%v)", diff, want, bypass, hier)
	}
}

func TestHierarchicalHostStageIsSharedBottleneck(t *testing.T) {
	// Two VMs on one host stage with one worker: their ops serialize at the
	// host even though each has its own channel and backend capacity.
	eng := sim.NewEngine()
	b := newRDMABackend(eng)
	host := NewHostSwapStage(eng, 1)
	p1 := NewHierarchicalPath(eng, b, NewChannel(eng, "vm1", 4), host)
	p2 := NewHierarchicalPath(eng, b, NewChannel(eng, "vm2", 4), host)
	var l1, l2 sim.Duration
	p1.SwapIn(Extent{Pages: 1}, func(l sim.Duration) { l1 = l })
	p2.SwapIn(Extent{Pages: 1}, func(l sim.Duration) { l2 = l })
	eng.Run()
	slow, fast := l1, l2
	if slow < fast {
		slow, fast = fast, slow
	}
	hop := HostHopOverhead + HostCopyPerPage
	if slow-fast < hop/2 {
		t.Fatalf("host stage did not serialize: lat %v vs %v", l1, l2)
	}
}

func TestPathStats(t *testing.T) {
	eng := sim.NewEngine()
	b := newSSDBackend(eng)
	p := NewPath(eng, b, NewChannel(eng, "ch", 4))
	p.SwapIn(Extent{Pages: 4, Sequential: true}, nil)
	p.SwapOut(Extent{Pages: 2, Sequential: true}, nil)
	eng.Run()
	if p.SwapIns.Value != 1 || p.SwapOuts.Value != 1 {
		t.Fatalf("ops: in=%d out=%d", p.SwapIns.Value, p.SwapOuts.Value)
	}
	if p.PagesIn != 4 || p.PagesOut != 2 {
		t.Fatalf("pages: in=%d out=%d", p.PagesIn, p.PagesOut)
	}
	if p.InLatency.Count() != 1 {
		t.Fatalf("latency samples=%d", p.InLatency.Count())
	}
}

func TestHierarchicalPathRequiresHostStage(t *testing.T) {
	eng := sim.NewEngine()
	b := newSSDBackend(eng)
	defer func() {
		if recover() == nil {
			t.Fatal("nil host stage did not panic")
		}
	}()
	NewHierarchicalPath(eng, b, NewChannel(eng, "ch", 1), nil)
}

func TestExtentBytes(t *testing.T) {
	if (Extent{Pages: 3}).Bytes() != 3*units.PageSize {
		t.Fatal("extent bytes wrong")
	}
}

func TestZeroPageExtentPanics(t *testing.T) {
	eng := sim.NewEngine()
	b := newSSDBackend(eng)
	defer func() {
		if recover() == nil {
			t.Fatal("zero-page extent did not panic")
		}
	}()
	b.Submit(Extent{Pages: 0}, nil)
}

// Shared vs isolated channels under co-location: the shared channel's mean
// queue wait must exceed the isolated channels' (Fig 17's mechanism).
func TestSharedChannelWaitsExceedIsolated(t *testing.T) {
	run := func(isolated bool) sim.Duration {
		eng := sim.NewEngine()
		b := newSSDBackend(eng)
		shared := NewChannel(eng, "shared", 2)
		mk := func(name string) *Path {
			if isolated {
				return NewPath(eng, b, NewChannel(eng, name, 2))
			}
			return NewPath(eng, b, shared)
		}
		p1, p2 := mk("t1"), mk("t2")
		for i := 0; i < 16; i++ {
			p1.SwapIn(Extent{Pages: 1}, nil)
			p2.SwapIn(Extent{Pages: 1}, nil)
		}
		eng.Run()
		if isolated {
			return (p1.Channel().MeanQueueWait() + p2.Channel().MeanQueueWait()) / 2
		}
		return shared.MeanQueueWait()
	}
	sharedWait, isoWait := run(false), run(true)
	if sharedWait <= isoWait {
		t.Fatalf("shared wait %v not worse than isolated %v", sharedWait, isoWait)
	}
}

// Property: striping conserves pages — the device moves exactly the bytes
// submitted, for any extent size and width.
func TestStripingConservationProperty(t *testing.T) {
	f := func(pagesSeed, widthSeed uint8) bool {
		pages := int(pagesSeed%200) + 1
		width := int(widthSeed%8) + 1
		eng := sim.NewEngine()
		b := newRDMABackend(eng)
		b.SetWidth(width)
		doneCount := 0
		b.Submit(Extent{Pages: pages, Sequential: true}, func(sim.Duration) { doneCount++ })
		eng.Run()
		if doneCount != 1 {
			return false
		}
		return b.Device().TotalBytes() == float64(int64(pages)*units.PageSize)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(51))}); err != nil {
		t.Fatal(err)
	}
}
