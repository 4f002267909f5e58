package sim

import (
	"testing"
)

// Tests for the two memory-behavior fixes layered onto the kernel: tombstone
// compaction when dead events dominate the heap, and releasing burst-sized
// slot/heap/lane/FIFO storage once an engine fully drains.

func TestEngineCompactOnCancelHeavyHeap(t *testing.T) {
	eng := NewEngine()
	fn := func() {}
	const n = 10_000
	handles := make([]Handle, 0, n)
	for i := 0; i < n; i++ {
		handles = append(handles, eng.After(Duration(i), fn))
	}
	for _, h := range handles {
		if !h.Cancel(eng) {
			t.Fatal("cancel of a pending event returned false")
		}
	}
	// All events are dead; compaction must have fired well before the last
	// cancel, without waiting for a Run to drain tombstones off the top.
	if len(eng.heap) > n/2 {
		t.Fatalf("heap holds %d entries after cancelling all %d (compaction never fired)", len(eng.heap), n)
	}
	if eng.live != 0 {
		t.Fatalf("live = %d after cancelling everything", eng.live)
	}
	eng.Run()
	if eng.Now() != 0 {
		t.Fatalf("clock moved to %v firing cancelled events", eng.Now())
	}
}

func TestEngineCompactPreservesOrderAndCancels(t *testing.T) {
	// Interleave survivors with a cancelled majority, forcing at least one
	// compaction, then check the survivors fire in exactly timestamp/seq
	// order and the cancelled ones never fire.
	eng := NewEngine()
	const n = 4096
	var fired []int
	handles := make([]Handle, n)
	for i := 0; i < n; i++ {
		i := i
		// Reverse times so cancels hit the middle of the heap, not the top.
		handles[i] = eng.At(Time(n-i), func() { fired = append(fired, i) })
	}
	for i := 0; i < n; i++ {
		if i%8 != 0 {
			handles[i].Cancel(eng)
		}
	}
	eng.Run()
	if want := n / 8; len(fired) != want {
		t.Fatalf("fired %d events, want %d", len(fired), want)
	}
	for j := 1; j < len(fired); j++ {
		// Later-scheduled events have earlier times here, so firing order is
		// descending index.
		if fired[j] >= fired[j-1] {
			t.Fatalf("events fired out of order: %d then %d", fired[j-1], fired[j])
		}
	}
}

func TestEngineCompactThenCancelRemainder(t *testing.T) {
	// A Handle taken before compaction must still cancel correctly after the
	// heap has been rebuilt around it.
	eng := NewEngine()
	fn := func() {}
	const n = 1024
	handles := make([]Handle, n)
	for i := 0; i < n; i++ {
		handles[i] = eng.After(Duration(i), fn)
	}
	for i := 0; i < n; i++ {
		if i%4 != 0 {
			handles[i].Cancel(eng)
		}
	}
	for i := 0; i < n; i += 4 {
		if !handles[i].Cancel(eng) {
			t.Fatalf("post-compaction cancel of survivor %d returned false", i)
		}
	}
	eng.Run()
	if got := eng.Processed(); got != 0 {
		t.Fatalf("processed %d events, want 0", got)
	}
}

func TestEngineCompactWithLiveLane(t *testing.T) {
	// The compaction trigger counts heap tombstones against heap entries:
	// live events waiting in the same-instant lane must not hide a heap that
	// is mostly dead.
	eng := NewEngine()
	const n = 1000
	var fired []int
	for i := 0; i < n; i++ {
		i := i
		eng.Immediately(func() { fired = append(fired, i) })
	}
	handles := make([]Handle, n)
	for i := 0; i < n; i++ {
		handles[i] = eng.After(Duration(1+i), func() { t.Error("cancelled heap event fired") })
	}
	for _, h := range handles {
		h.Cancel(eng)
	}
	if len(eng.heap) > n/2 {
		t.Fatalf("heap holds %d entries after cancelling all %d while the lane holds %d live events (compaction never fired)",
			len(eng.heap), n, eng.lane.len())
	}
	eng.Run()
	if len(fired) != n {
		t.Fatalf("fired %d lane events, want %d", len(fired), n)
	}
	for i, v := range fired {
		if v != i {
			t.Fatalf("lane events reordered: position %d fired event %d", i, v)
		}
	}
}

func TestEngineTrimReleasesBurstStorage(t *testing.T) {
	eng := NewEngine()
	line := eng.Delay(5)
	f := &eng.fifos[line.i]
	fn := func() {}
	const burst = 3 * trimSlotThreshold
	for i := 0; i < burst; i++ {
		eng.After(Duration(i), fn)
		eng.Immediately(fn) // a same-instant burst fills the lane
		line.Schedule(fn)   // and a timer burst the FIFO
	}
	if len(eng.slots) < 3*burst || len(eng.lane.q) < burst || len(f.q) < burst {
		t.Fatalf("slot table %d, lane %d, FIFO %d, want >= %d, %d and %d",
			len(eng.slots), len(eng.lane.q), len(f.q), 3*burst, burst, burst)
	}
	eng.Run()
	if eng.slots != nil || eng.freeSlots != nil || eng.heap != nil || eng.lane.q != nil || f.q != nil {
		t.Fatalf("burst storage not released after drain: slots=%d free=%d heap=%d lane=%d fifo=%d",
			len(eng.slots), len(eng.freeSlots), len(eng.heap), cap(eng.lane.q), cap(f.q))
	}
	// The engine, and the line, must keep working after the trim.
	ran, timed := false, false
	eng.After(1, func() { ran = true })
	line.Schedule(func() { timed = true })
	eng.Run()
	if !ran || !timed {
		t.Fatalf("engine dead after trim: After fired %v, DelayLine fired %v", ran, timed)
	}
}

func TestEngineTrimInvalidatesStaleHandles(t *testing.T) {
	eng := NewEngine()
	fn := func() {}
	line := eng.Delay(1)
	const burst = 3 * trimSlotThreshold
	handles := make([]Handle, burst)
	schedule := func(i int, fn func()) Handle {
		if i%3 == 2 {
			return line.Schedule(fn) // a third of them in the FIFO
		}
		return eng.After(Duration(i%3), fn) // a third in the lane
	}
	for i := 0; i < burst; i++ {
		handles[i] = schedule(i, fn)
	}
	eng.Run() // fires everything, then trims
	if eng.slots != nil {
		t.Fatalf("slot table of %d not released after the burst drained", len(eng.slots))
	}
	// Schedule fresh events that reuse the low slot indices, in the heap,
	// the lane and the FIFO; stale handles from before the trim must not
	// cancel them.
	fresh := 0
	for i := 0; i < 96; i++ {
		schedule(i, func() { fresh++ })
	}
	for _, h := range handles {
		if h.Cancel(eng) {
			t.Fatal("stale pre-trim handle cancelled a post-trim event")
		}
	}
	eng.Run()
	if fresh != 96 {
		t.Fatalf("fired %d fresh events, want 96", fresh)
	}
}

func TestEngineSmallSteadyStateNotTrimmed(t *testing.T) {
	// Steady-state populations far below the threshold keep their storage,
	// preserving the zero-alloc schedule path.
	eng := NewEngine()
	fn := func() {}
	for round := 0; round < 10; round++ {
		for i := 0; i < 256; i++ {
			eng.After(Duration(i), fn)
		}
		eng.Run()
	}
	if eng.slots == nil {
		t.Fatal("steady-state slot table was trimmed away")
	}
	if len(eng.slots) > trimSlotThreshold {
		t.Fatalf("steady-state slot table grew to %d", len(eng.slots))
	}
}

func TestStationFreeListBounded(t *testing.T) {
	eng := NewEngine()
	st := NewStation(eng, 4)
	// A burst far above the bound: submit 10k requests at once.
	const burst = 10_000
	for i := 0; i < burst; i++ {
		st.Submit(Duration(1+i%7), nil)
	}
	eng.Run()
	if st.Served != burst {
		t.Fatalf("served %d, want %d", st.Served, burst)
	}
	if st.free.Len() > maxFree {
		t.Fatalf("free list holds %d requests after burst, bound is %d", st.free.Len(), maxFree)
	}
	// Steady state keeps recycling.
	st.Submit(5, nil)
	eng.Run()
	if st.Served != burst+1 {
		t.Fatal("station dead after burst")
	}
}
