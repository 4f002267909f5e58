package device

import (
	"testing"

	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/units"
)

// Op records are recycled through the device's free list, so a
// steady-state op allocates nothing. These tests run with observability
// and invariants off, as they are by default.

func TestSubmitZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHost(eng, pcie.Gen4, 16)
	d := h.Attach(SpecConnectX5("rdma0"))
	onLat := func(sim.Duration) {}
	onResult := func(sim.Duration, error) {}
	for i := 0; i < 64; i++ {
		d.Submit(Op{Size: units.PageSize, Sequential: true}, onLat)
	}
	eng.Run()
	n := testing.AllocsPerRun(1000, func() {
		d.Submit(Op{Size: units.PageSize, Sequential: true}, onLat)
		d.Submit(Op{Size: units.PageSize, Write: true}, nil)
		d.SubmitResult(Op{Size: 4 * units.PageSize}, onResult)
		eng.Run()
	})
	if n != 0 {
		t.Errorf("steady-state device op allocates %.1f/op, want 0", n)
	}
}

// A device that stalls with ops queued drops them at admission. Their
// listeners never fire, and the ops submitted after recovery — which reuse
// recycled records, one of them from inside a completion — each report
// exactly once.
func TestStallDropsQueuedOpsAndRecycledRecordsStayExact(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHost(eng, pcie.Gen4, 16)
	spec := SpecConnectX5("rdma0")
	spec.Channels = 1
	d := h.Attach(spec)

	fired := make([]int, 8)
	var errs int
	submit := func(i int) {
		d.SubmitResult(Op{Size: units.PageSize, Sequential: true}, func(_ sim.Duration, err error) {
			fired[i]++
			if err != nil {
				errs++
			}
			if i == 4 {
				// Re-submit synchronously: op 7 reuses op 4's record.
				d.SubmitResult(Op{Size: units.PageSize}, func(sim.Duration, error) { fired[7]++ })
			}
		})
	}
	// Op 0 takes the only channel; ops 1-3 queue behind it and are dropped
	// when the stall catches them at admission.
	for i := 0; i < 4; i++ {
		submit(i)
	}
	eng.At(sim.Time(sim.Microsecond), d.Stall)
	eng.At(sim.Time(sim.Millisecond), func() {
		d.Recover()
		for i := 4; i < 7; i++ {
			submit(i)
		}
	})
	eng.Run()

	want := []int{1, 0, 0, 0, 1, 1, 1, 1}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("listener fire counts %v, want %v", fired, want)
		}
	}
	if errs != 0 {
		t.Fatalf("%d ops reported errors, want 0", errs)
	}
	if d.Dropped.Value != 3 || d.Ops.Value != 5 {
		t.Fatalf("dropped %d, completed %d; want 3 and 5", d.Dropped.Value, d.Ops.Value)
	}
	for r := d.free.Get(); r != nil; r = d.free.Get() {
		if r.onLat != nil || r.onResult != nil {
			t.Fatal("free list holds a record with a live listener")
		}
	}
}
