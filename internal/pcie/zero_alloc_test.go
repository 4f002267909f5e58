package pcie_test

import (
	"math"
	"testing"

	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/units"
)

// Flows are recycled through the fabric's free list, so a steady-state
// transfer allocates nothing. These tests run with observability and
// invariants off, as they are by default.

func TestTransferZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	fb := pcie.NewFabric(eng)
	path := []*pcie.Link{fb.NewLink("media", units.GBps(8)), fb.NewLink("root", units.GBps(32))}
	completions := 0
	done := func(sim.Time) { completions++ }
	// Warm the flow free list, the scratch slices and the engine's heap.
	for i := 0; i < 64; i++ {
		fb.TransferCapped(4096, units.GBps(4), path, done)
	}
	eng.Run()
	n := testing.AllocsPerRun(1000, func() {
		fb.Transfer(4096, path, done)
		fb.TransferCapped(8192, units.GBps(4), path, done)
		eng.Run()
	})
	if n != 0 {
		t.Errorf("steady-state transfer allocates %.1f/op, want 0", n)
	}
	if want := 64 + 2*1001; completions != want {
		t.Errorf("%d completions, want %d", completions, want)
	}
}

// A done that starts the next transfer synchronously reuses the flow that
// was just freed; every transfer must still complete exactly once, one
// uncontended transfer time after the previous one.
func TestTransferDoneResubmitReusesFlow(t *testing.T) {
	eng := sim.NewEngine()
	fb := pcie.NewFabric(eng)
	path := []*pcie.Link{fb.NewLink("l", units.BytesPerSec(1e9))}
	const chain = 100
	var at []sim.Time
	var done func(sim.Time)
	done = func(now sim.Time) {
		at = append(at, now)
		if len(at) < chain {
			fb.Transfer(1000, path, done) // 1µs alone on the link
		}
	}
	fb.Transfer(1000, path, done)
	eng.Run()
	if len(at) != chain {
		t.Fatalf("%d completions, want %d", len(at), chain)
	}
	prev := sim.Time(0)
	for i, now := range at {
		if gap := float64(now.Sub(prev)); math.Abs(gap-1000) > 1 {
			t.Fatalf("transfer %d took %vns, want 1000", i, gap)
		}
		prev = now
	}
	if fb.ActiveFlows() != 0 {
		t.Fatalf("%d flows still active", fb.ActiveFlows())
	}
}
