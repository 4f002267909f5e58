package sim

import (
	"slices"
	"testing"
)

// Tests for the delay FIFOs behind DelayLine: an event scheduled on a line
// gets the (at, seq) and Handle that After with the line's delay would give
// it, waits in the line's FIFO behind one heap proxy, and leaves a
// tombstone there when cancelled that compaction reclaims.

// Events on a line interleave with After and At events at the same instants
// exactly in scheduling order, and Delay returns one line per distinct
// delay.
func TestDelayLineMatchesAfter(t *testing.T) {
	eng := NewEngine()
	line := eng.Delay(10)
	if again := eng.Delay(10); again != line {
		t.Fatalf("Delay(10) twice returned %v and %v, want one line", line, again)
	}
	if other := eng.Delay(20); other == line {
		t.Fatal("Delay(20) returned the line for 10")
	}
	var got []int
	note := func(id int) func() { return func() { got = append(got, id) } }
	for round := 0; round < 3; round++ {
		base := 10 * round
		eng.After(10, note(base))
		line.Schedule(note(base + 1))
		eng.At(eng.Now().Add(10), note(base+2))
		line.Schedule(note(base + 3))
		eng.After(10, note(base+4))
		eng.RunUntil(eng.Now().Add(5)) // the next round's events land 5 later
	}
	eng.Run()
	if want := []int{0, 1, 2, 3, 4, 10, 11, 12, 13, 14, 20, 21, 22, 23, 24}; !slices.Equal(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	if eng.Now() != 20 {
		t.Fatalf("clock = %v, want 20", eng.Now())
	}
}

// A warm arm-and-cancel through a DelayLine allocates nothing, the way a
// swap path arms and cancels its retry timer on every attempt while other
// events keep the engine busy.
func TestEngineDelayZeroAlloc(t *testing.T) {
	eng := NewEngine()
	line := eng.Delay(10 * Millisecond)
	fn := func() {}
	for i := 0; i < 20; i++ {
		eng.After(Duration(1+i)*Second, fn)
	}
	op := func() {
		h := line.Schedule(fn)
		eng.RunUntil(eng.Now().Add(Microsecond))
		h.Cancel(eng)
	}
	for i := 0; i < 1000; i++ {
		op() // warm the slot table and the FIFO
	}
	if allocs := testing.AllocsPerRun(1000, op); allocs != 0 {
		t.Fatalf("warm arm-and-cancel allocates %.1f per op, want 0", allocs)
	}
}

// Rounds of timers, all but one of each cancelled before the engine looks
// at its queues again, keep the FIFO and the slot table bounded: compaction
// reclaims the tombstones. A Handle to a compacted-away timer cancels
// nothing, and the kept timers fire on time.
func TestDelayFIFOCompactsTombstones(t *testing.T) {
	eng := NewEngine()
	line := eng.Delay(10)
	f := &eng.fifos[line.i]
	const rounds, perRound = 50, 200
	var fired []int
	var stale []Handle
	for r := 0; r < rounds; r++ {
		eng.RunUntil(Time(r))
		for j := 0; j < perRound; j++ {
			id := r*perRound + j
			h := line.Schedule(func() {
				if want := Time(id/perRound + 10); eng.Now() != want {
					t.Errorf("timer %d fired at %v, want %v", id, eng.Now(), want)
				}
				fired = append(fired, id)
			})
			if j == perRound/2 {
				continue
			}
			if !h.Cancel(eng) {
				t.Fatalf("cancel of pending timer %d returned false", id)
			}
			stale = append(stale, h)
			if f.len() >= compactMin || len(eng.slots) > compactMin {
				t.Fatalf("round %d: FIFO holds %d entries (%d dead) in a slot table of %d",
					r, f.len(), f.dead, len(eng.slots))
			}
		}
		for _, h := range stale {
			if h.Cancel(eng) {
				t.Fatalf("round %d: a handle to a compacted-away timer cancelled an event", r)
			}
		}
	}
	eng.Run()
	if len(fired) != rounds {
		t.Fatalf("fired %d timers, want the %d kept", len(fired), rounds)
	}
	for r, id := range fired {
		if want := r*perRound + perRound/2; id != want {
			t.Fatalf("fired timer %d in place %d, want %d", id, r, want)
		}
	}
	if f.len() != 0 || f.proxied || len(eng.heap) != 0 || eng.live != 0 {
		t.Fatalf("after the run: FIFO %d, proxied %v, heap %d, live %d", f.len(), f.proxied, len(eng.heap), eng.live)
	}
}
