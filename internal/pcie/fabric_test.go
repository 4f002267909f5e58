package pcie

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/units"
)

func TestSingleFlowFullRate(t *testing.T) {
	eng := sim.NewEngine()
	fb := NewFabric(eng)
	link := fb.NewLink("pcie", units.GBps(10))
	var finished sim.Time
	fb.Transfer(10e9, []*Link{link}, func(at sim.Time) { finished = at })
	eng.Run()
	// 10 GB at 10 GB/s = 1 s.
	if got := finished.Seconds(); math.Abs(got-1.0) > 1e-6 {
		t.Fatalf("finish at %vs, want 1s", got)
	}
	if u := link.Utilization(eng.Now()); math.Abs(u-1.0) > 1e-6 {
		t.Fatalf("utilization %v, want 1.0", u)
	}
}

func TestTwoFlowsShareFairly(t *testing.T) {
	eng := sim.NewEngine()
	fb := NewFabric(eng)
	link := fb.NewLink("pcie", units.GBps(10))
	var f1, f2 sim.Time
	fb.Transfer(5e9, []*Link{link}, func(at sim.Time) { f1 = at })
	fb.Transfer(5e9, []*Link{link}, func(at sim.Time) { f2 = at })
	eng.Run()
	// Each gets 5 GB/s: both finish at t=1s.
	if math.Abs(f1.Seconds()-1.0) > 1e-6 || math.Abs(f2.Seconds()-1.0) > 1e-6 {
		t.Fatalf("finish times %v %v, want both 1s", f1, f2)
	}
}

func TestShortFlowDepartsAndLongFlowSpeedsUp(t *testing.T) {
	eng := sim.NewEngine()
	fb := NewFabric(eng)
	link := fb.NewLink("pcie", units.GBps(10))
	var short, long sim.Time
	fb.Transfer(2.5e9, []*Link{link}, func(at sim.Time) { short = at })
	fb.Transfer(7.5e9, []*Link{link}, func(at sim.Time) { long = at })
	eng.Run()
	// Shared 5+5 until short finishes at t=0.5 (2.5GB at 5GB/s). Long then has
	// 5GB left at 10GB/s: finishes at t=1.0.
	if math.Abs(short.Seconds()-0.5) > 1e-6 {
		t.Fatalf("short finish %v, want 0.5s", short.Seconds())
	}
	if math.Abs(long.Seconds()-1.0) > 1e-6 {
		t.Fatalf("long finish %v, want 1.0s", long.Seconds())
	}
}

func TestMultiLinkBottleneck(t *testing.T) {
	eng := sim.NewEngine()
	fb := NewFabric(eng)
	device := fb.NewLink("ssd", units.GBps(4))
	fabric := fb.NewLink("pcie", units.GBps(32))
	var finish sim.Time
	fb.Transfer(4e9, []*Link{device, fabric}, func(at sim.Time) { finish = at })
	eng.Run()
	// Bottleneck is the 4 GB/s device: 1 s.
	if math.Abs(finish.Seconds()-1.0) > 1e-6 {
		t.Fatalf("finish %v, want 1s", finish.Seconds())
	}
}

// The paper's multi-backend headline: two devices of 4 GB/s each on a 32 GB/s
// fabric together deliver 8 GB/s, while a single device is stuck at 4.
func TestMultiBackendAggregation(t *testing.T) {
	eng := sim.NewEngine()
	fb := NewFabric(eng)
	fabric := fb.NewLink("pcie", units.GBps(32))
	ssd1 := fb.NewLink("ssd1", units.GBps(4))
	ssd2 := fb.NewLink("ssd2", units.GBps(4))
	var t1, t2 sim.Time
	fb.Transfer(4e9, []*Link{ssd1, fabric}, func(at sim.Time) { t1 = at })
	fb.Transfer(4e9, []*Link{ssd2, fabric}, func(at sim.Time) { t2 = at })
	eng.Run()
	if math.Abs(t1.Seconds()-1.0) > 1e-6 || math.Abs(t2.Seconds()-1.0) > 1e-6 {
		t.Fatalf("parallel transfers took %v and %v, want 1s each (8GB in 1s total)", t1, t2)
	}
}

func TestFabricSaturationCapsAggregate(t *testing.T) {
	eng := sim.NewEngine()
	fb := NewFabric(eng)
	fabric := fb.NewLink("pcie", units.GBps(8))
	var finishes []float64
	for i := 0; i < 4; i++ {
		dev := fb.NewLink("dev", units.GBps(4))
		fb.Transfer(2e9, []*Link{dev, fabric}, func(at sim.Time) {
			finishes = append(finishes, at.Seconds())
		})
	}
	eng.Run()
	// 4 devices × 4 GB/s demand = 16 GB/s > 8 GB/s fabric. Each flow gets
	// 2 GB/s, so 2 GB takes 1 s.
	for _, f := range finishes {
		if math.Abs(f-1.0) > 1e-6 {
			t.Fatalf("finishes = %v, want all 1.0", finishes)
		}
	}
}

func TestPerFlowRateCap(t *testing.T) {
	eng := sim.NewEngine()
	fb := NewFabric(eng)
	link := fb.NewLink("pcie", units.GBps(10))
	var capped, open sim.Time
	fb.TransferCapped(1e9, units.GBps(1), []*Link{link}, func(at sim.Time) { capped = at })
	fb.Transfer(9e9, []*Link{link}, func(at sim.Time) { open = at })
	eng.Run()
	// Capped flow: 1 GB at 1 GB/s = 1 s. Open flow gets the remaining 9 GB/s:
	// 9 GB / 9 GB/s = 1 s.
	if math.Abs(capped.Seconds()-1.0) > 1e-6 {
		t.Fatalf("capped finish %v, want 1s", capped.Seconds())
	}
	if math.Abs(open.Seconds()-1.0) > 1e-6 {
		t.Fatalf("open finish %v, want 1s", open.Seconds())
	}
}

func TestZeroSizeTransferCompletesImmediately(t *testing.T) {
	eng := sim.NewEngine()
	fb := NewFabric(eng)
	link := fb.NewLink("pcie", units.GBps(1))
	doneAt := sim.Time(-1)
	fb.Transfer(0, []*Link{link}, func(at sim.Time) { doneAt = at })
	eng.Run()
	if doneAt != 0 {
		t.Fatalf("zero-size transfer completed at %v, want 0", doneAt)
	}
}

func TestEmptyPathPanics(t *testing.T) {
	eng := sim.NewEngine()
	fb := NewFabric(eng)
	defer func() {
		if recover() == nil {
			t.Fatal("empty path did not panic")
		}
	}()
	fb.Transfer(1, nil, nil)
}

func TestSetCapacityRebalance(t *testing.T) {
	eng := sim.NewEngine()
	fb := NewFabric(eng)
	link := fb.NewLink("pcie", units.GBps(1))
	var finish sim.Time
	fb.Transfer(2e9, []*Link{link}, func(at sim.Time) { finish = at })
	eng.At(sim.Time(sim.Second), func() {
		// After 1s, 1 GB remains. Double the capacity: remaining takes 0.5s.
		link.SetCapacity(units.GBps(2))
		fb.Rebalance()
	})
	eng.Run()
	if math.Abs(finish.Seconds()-1.5) > 1e-6 {
		t.Fatalf("finish %v, want 1.5s", finish.Seconds())
	}
}

// Property: with arbitrary flow sizes on one link, total bytes moved equals
// the sum of sizes, and the link never carries more than capacity (verified
// via completion time >= sum/capacity).
func TestFabricConservationProperty(t *testing.T) {
	f := func(sizes []uint32) bool {
		eng := sim.NewEngine()
		fb := NewFabric(eng)
		link := fb.NewLink("l", units.BytesPerSec(100e6))
		total := 0.0
		completions := 0
		for _, s := range sizes {
			size := int64(s%10_000_000) + 1
			total += float64(size)
			fb.Transfer(size, []*Link{link}, func(sim.Time) { completions++ })
		}
		eng.Run()
		if completions != len(sizes) {
			return false
		}
		if math.Abs(link.bytesMoved-total) > 1+1e-6*total {
			return false
		}
		// Completion cannot beat the capacity bound.
		minTime := total / 100e6
		return eng.Now().Seconds() >= minTime-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

// Property: max-min fairness — equal-size flows arriving together on one
// link finish together.
func TestFairnessProperty(t *testing.T) {
	f := func(nSeed uint8, sizeSeed uint32) bool {
		n := int(nSeed%8) + 2
		size := int64(sizeSeed%1_000_000) + 1000
		eng := sim.NewEngine()
		fb := NewFabric(eng)
		link := fb.NewLink("l", units.BytesPerSec(10e6))
		var finishes []sim.Time
		for i := 0; i < n; i++ {
			fb.Transfer(size, []*Link{link}, func(at sim.Time) { finishes = append(finishes, at) })
		}
		eng.Run()
		if len(finishes) != n {
			return false
		}
		for _, fi := range finishes {
			if fi != finishes[0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(12))}); err != nil {
		t.Fatal(err)
	}
}

// Property: in a random two-tier topology (per-device links feeding a
// shared trunk), all transfers complete, bytes are conserved on the trunk,
// and the completion time respects both the trunk bound and each device
// bound.
func TestRandomTopologyProperty(t *testing.T) {
	f := func(devSeeds []uint8, trunkSeed uint8) bool {
		if len(devSeeds) == 0 || len(devSeeds) > 12 {
			return true
		}
		eng := sim.NewEngine()
		fb := NewFabric(eng)
		trunkCap := float64(trunkSeed%40+10) * 1e8 // 1-5 GB/s
		trunk := fb.NewLink("trunk", units.BytesPerSec(trunkCap))
		done := 0
		total := 0.0
		maxDevTime := 0.0
		for _, ds := range devSeeds {
			devCap := float64(ds%20+5) * 1e8
			dev := fb.NewLink("dev", units.BytesPerSec(devCap))
			size := int64(ds)*1e6 + 1e6
			total += float64(size)
			if devTime := float64(size) / devCap; devTime > maxDevTime {
				maxDevTime = devTime
			}
			fb.Transfer(size, []*Link{dev, trunk}, func(sim.Time) { done++ })
		}
		eng.Run()
		if done != len(devSeeds) {
			return false
		}
		if math.Abs(trunk.bytesMoved-total) > 1+1e-6*total {
			return false
		}
		elapsed := eng.Now().Seconds()
		// Lower bounds: the trunk must carry everything; the slowest device
		// flow cannot finish before its own capacity allows.
		if elapsed < total/trunkCap-1e-6 || elapsed < maxDevTime-1e-6 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Fatal(err)
	}
}
