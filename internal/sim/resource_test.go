package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestResourceImmediateGrant(t *testing.T) {
	eng := NewEngine()
	r := NewResource(eng, 2)
	granted := 0
	r.Acquire(func() { granted++ })
	r.Acquire(func() { granted++ })
	eng.Run()
	if granted != 2 {
		t.Fatalf("granted=%d, want 2", granted)
	}
	if r.InUse() != 2 {
		t.Fatalf("inUse=%d, want 2", r.InUse())
	}
}

func TestResourceQueueing(t *testing.T) {
	eng := NewEngine()
	r := NewResource(eng, 1)
	var order []int
	r.Acquire(func() {
		order = append(order, 1)
		eng.After(10, func() { r.Release() })
	})
	r.Acquire(func() {
		order = append(order, 2)
		r.Release()
	})
	r.Acquire(func() { order = append(order, 3) })
	eng.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("FIFO violated: %v", order)
	}
}

func TestResourceResizeAdmitsWaiters(t *testing.T) {
	eng := NewEngine()
	r := NewResource(eng, 1)
	got := 0
	r.Acquire(func() { got++ })
	r.Acquire(func() { got++ })
	r.Acquire(func() { got++ })
	eng.Run()
	if got != 1 {
		t.Fatalf("got=%d before resize, want 1", got)
	}
	r.Resize(3)
	eng.Run()
	if got != 3 {
		t.Fatalf("got=%d after resize, want 3", got)
	}
}

func TestResourcePanics(t *testing.T) {
	eng := NewEngine()
	r := NewResource(eng, 1)
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero capacity", func() { NewResource(eng, 0) })
	mustPanic("release without acquire", func() { r.Release() })
}

// Property: a random schedule of acquires and releases never exceeds
// capacity and eventually grants every request.
func TestResourceConservationProperty(t *testing.T) {
	f := func(holdSeeds []uint8, capSeed uint8) bool {
		capacity := int(capSeed%8) + 1
		eng := NewEngine()
		r := NewResource(eng, capacity)
		granted := 0
		holdOK := true
		for _, hs := range holdSeeds {
			hold := Duration(hs%17) + 1
			r.Acquire(func() {
				granted++
				if r.InUse() > r.Capacity() {
					holdOK = false
				}
				eng.After(hold, r.Release)
			})
		}
		eng.Run()
		return holdOK && granted == len(holdSeeds) && r.InUse() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

func TestStationParallelism(t *testing.T) {
	eng := NewEngine()
	st := NewStation(eng, 2)
	var done []Duration
	for i := 0; i < 4; i++ {
		st.Submit(10, func(sojourn Duration) { done = append(done, sojourn) })
	}
	eng.Run()
	// Two run at [0,10], two wait and run at [10,20]: sojourns 10,10,20,20.
	if len(done) != 4 {
		t.Fatalf("completed %d, want 4", len(done))
	}
	if done[0] != 10 || done[1] != 10 || done[2] != 20 || done[3] != 20 {
		t.Fatalf("sojourns=%v", done)
	}
	if st.Served != 4 {
		t.Fatalf("Served=%d", st.Served)
	}
	if st.BusyTime != 40 {
		t.Fatalf("BusyTime=%v", st.BusyTime)
	}
}

func TestStationResubmitFromDone(t *testing.T) {
	// A done callback that immediately resubmits reuses the just-recycled
	// request object; the closed-loop chain must keep correct accounting.
	eng := NewEngine()
	st := NewStation(eng, 1)
	remaining := 10
	var sojourns []Duration
	var next func(Duration)
	next = func(s Duration) {
		sojourns = append(sojourns, s)
		if remaining > 0 {
			remaining--
			st.Submit(7, next)
		}
	}
	remaining--
	st.Submit(7, next)
	eng.Run()
	if len(sojourns) != 10 {
		t.Fatalf("completed %d, want 10", len(sojourns))
	}
	for i, s := range sojourns {
		if s != 7 {
			t.Fatalf("sojourn[%d]=%v, want 7 (closed loop never queues)", i, s)
		}
	}
	if st.Served != 10 || st.BusyTime != 70 {
		t.Fatalf("Served=%d BusyTime=%v, want 10/70", st.Served, st.BusyTime)
	}
}

func TestStationUtilization(t *testing.T) {
	eng := NewEngine()
	st := NewStation(eng, 1)
	st.Submit(50, nil)
	eng.RunUntil(100)
	if u := st.Utilization(); u < 0.49 || u > 0.51 {
		t.Fatalf("utilization=%v, want ~0.5", u)
	}
}
