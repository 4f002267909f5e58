package task

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// poolRun starts tasks of the given shapes on a fresh rig, one every
// stagger, through pool (nil builds every task with New), and returns each
// task's final Stats.
func poolRun(t *testing.T, pool *Pool, seed int64, shapes []int, stagger sim.Duration) []Stats {
	t.Helper()
	r := newRig()
	swapPath, filePath := r.path(r.rdma, 8), r.path(r.ssd, 4)
	out := make([]Stats, len(shapes))
	finished := 0
	for i, sh := range shapes {
		i := i
		spec := smallSpec()
		spec.FootprintPages = 64 << (sh % 4) // 64..512 pages, shrinking and growing
		spec.Threads = sh/4%4 + 1
		spec.MainAccesses = 1500
		cfg := Config{
			Eng: r.eng, Name: fmt.Sprintf("t%d", i), Spec: spec, Seed: seed + int64(i),
			LocalRatio: 0.3 + 0.1*float64(sh%5), GranularityPages: 1 << (sh % 3 * 2),
			AdaptiveWindow: sh%2 == 0,
			SwapPath:       swapPath, FilePath: filePath,
		}
		r.eng.At(sim.Time(0).Add(sim.Duration(i)*stagger), func() {
			pool.New(cfg).Start(func(s Stats) { out[i] = s; finished++ })
		})
	}
	r.eng.Run()
	if finished != len(shapes) {
		t.Fatalf("%d of %d tasks finished", finished, len(shapes))
	}
	return out
}

// Property: tasks with mixed footprints and thread counts, overlapping or
// back to back, give the same Stats through one Pool as built with New.
func TestPooledTaskMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 8; trial++ {
		shapes := make([]int, 6+rng.Intn(6))
		for i := range shapes {
			shapes[i] = rng.Intn(64)
		}
		stagger := sim.Duration(rng.Intn(4)) * sim.Millisecond
		var pool Pool
		got := poolRun(t, &pool, int64(trial), shapes, stagger)
		want := poolRun(t, nil, int64(trial), shapes, stagger)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d task %d (shape %d): pooled %+v, fresh %+v", trial, i, shapes[i], got[i], want[i])
			}
		}
		// Back-to-back tasks share storage: every storage is back in the
		// pool, and there are fewer of them than tasks.
		if stagger >= 2*sim.Millisecond && len(pool.free) >= len(shapes) {
			t.Fatalf("trial %d: %d tasks built %d storages, none reused", trial, len(shapes), len(pool.free))
		}
	}
}

// A task whose write-backs are still in flight when its workers finish
// keeps its storage until the last write-back completes; only then does
// the pool get it back, and the next task reuses it.
func TestPoolWaitsForLastWriteback(t *testing.T) {
	r := newRig()
	spec := smallSpec()
	spec.AnonFraction = 1
	// One write sweep over the space: past the local budget, every
	// first-touch fault evicts a dirty page, so the last fault leaves a
	// write-back to the SSD in flight as the worker exits.
	cfg := Config{
		Eng: r.eng, Name: "wb", Spec: spec, LocalRatio: 0.25,
		SwapPath: r.path(r.ssd, 4),
		Sources:  []workload.AccessSource{&cycler{n: 512, left: 512}},
	}
	var pool Pool
	tk := pool.New(cfg)
	st := tk.storage
	inFlight := func() int { return st.wbTokens.InUse() + st.wbTokens.Waiting() }
	done := false
	tk.Start(func(Stats) { done = true })
	outlived := 0
	for r.eng.Step() {
		if !done {
			continue
		}
		if n := inFlight(); n > 0 {
			outlived = n
			if len(pool.free) != 0 {
				t.Fatalf("storage handed back with %d write-backs in flight", n)
			}
		}
	}
	if !done {
		t.Fatal("task did not finish")
	}
	if outlived == 0 {
		t.Fatal("setup: no write-back outlived finish")
	}
	if len(pool.free) != 1 || pool.free[0] != st || tk.storage != nil {
		t.Fatal("storage not handed back after the last write-back")
	}
	cfg.Sources = []workload.AccessSource{&cycler{n: 512, left: 512}}
	if next := pool.New(cfg); next.storage != st {
		t.Fatal("next task did not reuse the handed-back storage")
	}
}

func TestPoolRejectsSecondEngine(t *testing.T) {
	var pool Pool
	a, b := newRig(), newRig()
	pool.New(Config{Eng: a.eng, Spec: smallSpec(), SwapPath: a.path(a.rdma, 4)})
	defer func() {
		if recover() == nil {
			t.Fatal("a pool served a second engine")
		}
	}()
	pool.New(Config{Eng: b.eng, Spec: smallSpec(), SwapPath: b.path(b.rdma, 4)})
}

// cycler writes pages 0, 7, 14, ... of an n-page space round and round,
// left accesses in all. Under a small local budget every access faults,
// reclaims a dirty page and writes it back.
type cycler struct {
	n, next int32
	left    int
}

func (c *cycler) Next() (workload.Access, bool) {
	if c.left == 0 {
		return workload.Access{}, false
	}
	c.left--
	a := workload.Access{Page: c.next, Write: true}
	c.next = (c.next + 7) % c.n
	return a, true
}

// On warm storage, the fault and reclaim path allocates nothing, and a
// pooled task's whole lifecycle allocates the same at 256 and 4096 pages:
// the page-level storage is reused, not rebuilt.
func TestPooledTaskZeroAlloc(t *testing.T) {
	for _, adaptive := range []bool{false, true} {
		r := newRig()
		spec := smallSpec()
		spec.FootprintPages, spec.AnonFraction = 1000, 0.8 // 200 file-backed pages
		swapPath := r.path(r.rdma, 8)
		var pool Pool
		tk := pool.New(Config{
			Eng: r.eng, Spec: spec, LocalRatio: 0.25, GranularityPages: 8,
			AdaptiveWindow: adaptive, SwapPath: swapPath, FilePath: r.path(r.ssd, 4),
			Sources: []workload.AccessSource{&cycler{n: 1000, left: math.MaxInt}},
		})
		tk.Start(nil)
		step := func() { r.eng.RunUntil(r.eng.Now().Add(200 * sim.Microsecond)) }
		for i := 0; i < 50; i++ {
			step()
		}
		before := tk.Stats()
		if n := testing.AllocsPerRun(100, step); n != 0 {
			t.Errorf("adaptive=%v: warm fault/reclaim cycle allocates %.1f per 200µs, want 0", adaptive, n)
		}
		after := tk.Stats()
		if after.MajorFaults == before.MajorFaults || after.FileRefaults == before.FileRefaults ||
			after.PagesOut == before.PagesOut {
			t.Fatalf("adaptive=%v: measured window saw no faults or write-back: %+v -> %+v", adaptive, before, after)
		}
	}

	lifecycle := func(pages int) float64 {
		r := newRig()
		spec := smallSpec()
		spec.FootprintPages, spec.Threads = pages, 2
		cfg := Config{
			Eng: r.eng, Spec: spec, Seed: 1, LocalRatio: 0.5,
			SwapPath: r.path(r.rdma, 8), FilePath: r.path(r.ssd, 4),
		}
		var pool Pool
		run := func() {
			pool.New(cfg).Start(nil)
			r.eng.Run()
		}
		run()
		return testing.AllocsPerRun(20, run)
	}
	small, large := lifecycle(256), lifecycle(4096)
	if small != large {
		t.Errorf("pooled task lifecycle allocates %.1f at 256 pages but %.1f at 4096", small, large)
	}
	t.Logf("pooled task lifecycle: %.1f allocations at 256 and 4096 pages", small)
}
