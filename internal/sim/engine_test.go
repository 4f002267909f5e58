package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineOrdersEventsByTime(t *testing.T) {
	eng := NewEngine()
	var got []int
	eng.At(30, func() { got = append(got, 3) })
	eng.At(10, func() { got = append(got, 1) })
	eng.At(20, func() { got = append(got, 2) })
	eng.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events fired out of order: %v", got)
	}
	if eng.Now() != 30 {
		t.Fatalf("clock = %v, want 30", eng.Now())
	}
}

func TestEngineSameInstantFIFO(t *testing.T) {
	eng := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		eng.At(5, func() { got = append(got, i) })
	}
	eng.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events reordered: %v", got)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	eng := NewEngine()
	var trace []Time
	eng.At(10, func() {
		trace = append(trace, eng.Now())
		eng.After(5, func() { trace = append(trace, eng.Now()) })
	})
	eng.Run()
	if len(trace) != 2 || trace[0] != 10 || trace[1] != 15 {
		t.Fatalf("nested scheduling trace = %v", trace)
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	eng := NewEngine()
	eng.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		eng.At(5, func() {})
	})
	eng.Run()
}

func TestEngineCancel(t *testing.T) {
	eng := NewEngine()
	fired := false
	h := eng.At(10, func() { fired = true })
	if !h.Cancel(eng) {
		t.Fatal("first cancel should succeed")
	}
	if h.Cancel(eng) {
		t.Fatal("second cancel should fail")
	}
	eng.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestEngineCancelMiddleOfHeap(t *testing.T) {
	eng := NewEngine()
	var got []int
	var handles []Handle
	for i := 0; i < 20; i++ {
		i := i
		handles = append(handles, eng.At(Time(i*10), func() { got = append(got, i) }))
	}
	// Cancel the odd ones.
	for i := 1; i < 20; i += 2 {
		if !handles[i].Cancel(eng) {
			t.Fatalf("cancel %d failed", i)
		}
	}
	eng.Run()
	if len(got) != 10 {
		t.Fatalf("got %d events, want 10: %v", len(got), got)
	}
	for _, v := range got {
		if v%2 != 0 {
			t.Fatalf("cancelled event %d fired", v)
		}
	}
}

func TestEngineCancelAfterFire(t *testing.T) {
	eng := NewEngine()
	fired := false
	h := eng.At(10, func() { fired = true })
	eng.Run()
	if !fired {
		t.Fatal("event did not fire")
	}
	if h.Cancel(eng) {
		t.Fatal("cancel-after-fire must be a no-op returning false")
	}
	// The fired event's slot is recycled by the next event; the stale handle
	// must not be able to cancel the new tenant.
	fired2 := false
	eng.At(20, func() { fired2 = true })
	if h.Cancel(eng) {
		t.Fatal("stale handle cancelled a recycled slot")
	}
	eng.Run()
	if !fired2 {
		t.Fatal("recycled-slot event did not fire")
	}
}

func TestEngineDoubleCancel(t *testing.T) {
	eng := NewEngine()
	h := eng.At(10, func() { t.Error("cancelled event fired") })
	if !h.Cancel(eng) {
		t.Fatal("first cancel should succeed")
	}
	for i := 0; i < 3; i++ {
		if h.Cancel(eng) {
			t.Fatal("double-cancel must be a no-op returning false")
		}
	}
	if eng.live != 0 {
		t.Fatalf("live = %d after cancel, want 0", eng.live)
	}
	eng.Run()
	if h.Cancel(eng) {
		t.Fatal("cancel after the tombstone drained should still be a no-op")
	}
}

func TestEngineCancelThenRun(t *testing.T) {
	// Cancel interleaved with Run: events cancelled from inside a running
	// event (including at the same instant) must not fire, and the clock
	// must not advance to a cancelled event's timestamp.
	eng := NewEngine()
	var got []int
	var hLater, hSame Handle
	hLater = eng.At(30, func() { got = append(got, 30) })
	eng.At(10, func() {
		got = append(got, 10)
		hSame = eng.At(10, func() { got = append(got, 11) })
		if !hSame.Cancel(eng) {
			t.Error("same-instant cancel from inside an event failed")
		}
		if !hLater.Cancel(eng) {
			t.Error("cancel of a later event from inside an event failed")
		}
	})
	eng.At(20, func() { got = append(got, 20) })
	eng.Run()
	if len(got) != 2 || got[0] != 10 || got[1] != 20 {
		t.Fatalf("cancel-then-run trace = %v, want [10 20]", got)
	}
	if eng.Now() != 20 {
		t.Fatalf("clock advanced to %v; cancelled tail event must not move it past 20", eng.Now())
	}
	if eng.live != 0 {
		t.Fatalf("live = %d after drain, want 0", eng.live)
	}
}

func TestEngineZeroHandleCancel(t *testing.T) {
	eng := NewEngine()
	var h Handle
	eng.At(5, func() {})
	if h.Cancel(eng) {
		t.Fatal("zero Handle must never cancel anything")
	}
	eng.Run()
	if eng.Processed() != 1 {
		t.Fatalf("processed = %d, want 1", eng.Processed())
	}
}

func TestEngineRunUntil(t *testing.T) {
	eng := NewEngine()
	var fired []Time
	for _, at := range []Time{5, 15, 25} {
		at := at
		eng.At(at, func() { fired = append(fired, at) })
	}
	eng.RunUntil(20)
	if len(fired) != 2 {
		t.Fatalf("RunUntil(20) fired %v", fired)
	}
	if eng.Now() != 20 {
		t.Fatalf("clock after RunUntil = %v, want 20", eng.Now())
	}
	eng.Run()
	if len(fired) != 3 {
		t.Fatalf("remaining events did not fire: %v", fired)
	}
}

func TestEngineRunUntilAdvancesEmptyClock(t *testing.T) {
	eng := NewEngine()
	eng.RunUntil(100)
	if eng.Now() != 100 {
		t.Fatalf("clock = %v, want 100", eng.Now())
	}
}

// Property: however events are scheduled, they fire in nondecreasing time
// order and the processed count matches.
func TestEngineOrderingProperty(t *testing.T) {
	f := func(times []uint32) bool {
		eng := NewEngine()
		var fired []Time
		for _, raw := range times {
			at := Time(raw % 1_000_000)
			eng.At(at, func() { fired = append(fired, eng.Now()) })
		}
		eng.Run()
		if len(fired) != len(times) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		return eng.Processed() == uint64(len(times))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaved schedule/cancel keeps the heap consistent — exactly
// the uncancelled events fire, in order.
func TestEngineCancelProperty(t *testing.T) {
	f := func(times []uint16, cancelMask []bool) bool {
		eng := NewEngine()
		fired := map[int]bool{}
		var handles []Handle
		for i, raw := range times {
			i := i
			handles = append(handles, eng.At(Time(raw), func() { fired[i] = true }))
		}
		cancelled := map[int]bool{}
		for i := range handles {
			if i < len(cancelMask) && cancelMask[i] {
				if handles[i].Cancel(eng) {
					cancelled[i] = true
				}
			}
		}
		eng.Run()
		for i := range times {
			if cancelled[i] == fired[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500, "500ns"},
		{2500, "2.50µs"},
		{3 * Millisecond, "3.00ms"},
		{2 * Second, "2.000s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestDurationOf(t *testing.T) {
	if DurationOf(1.5) != 1500*Millisecond {
		t.Fatalf("DurationOf(1.5) = %v", DurationOf(1.5))
	}
	if DurationOf(1e30) <= 0 {
		t.Fatal("DurationOf should saturate, not overflow")
	}
	if DurationOf(-1e30) >= 0 {
		t.Fatal("DurationOf should saturate negative")
	}
}
