package task

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/workload"
)

// Property: for any workload shape, local ratio, and granularity, the task
// completes, never exceeds its memory budget by more than one in-flight
// extent, and its counters are internally consistent.
func TestTaskInvariantsProperty(t *testing.T) {
	f := func(seed int64, ratioSeed, granSeed, seqSeed, threadSeed uint8) bool {
		ratio := 0.2 + float64(ratioSeed%7)*0.1
		gran := 1 << (granSeed % 6) // 1..32
		spec := workload.Spec{
			Name: "prop", Class: workload.Compute, MaxMemGiB: 1,
			FootprintPages: 768, AnonFraction: 0.9, Coverage: 1.0,
			SegmentLen: 256, SeqShare: float64(seqSeed%10) / 10, RunLen: 24,
			HotShare: 0.2, HotProb: 0.6, WriteFraction: 0.3,
			ComputePerAccess: 100 * sim.Nanosecond, MainAccesses: 3000,
			Threads: int(threadSeed%4) + 1,
		}
		r := newRig()
		tk := New(Config{
			Eng: r.eng, Name: "prop", Spec: spec, Seed: seed,
			LocalRatio: ratio, GranularityPages: gran,
			SwapPath: r.path(r.rdma, 8), FilePath: r.path(r.ssd, 4),
		})
		finished := false
		var stats Stats
		tk.Start(func(s Stats) { finished = true; stats = s })

		// Check the residency budget as the simulation runs.
		limit := tk.Cgroup().LimitPages
		ok := true
		var watch func()
		watch = func() {
			if tk.ps.Resident() > limit+gran*spec.Threads {
				ok = false
				return
			}
			if !finished {
				r.eng.After(50*sim.Microsecond, watch)
			}
		}
		r.eng.Immediately(watch)
		r.eng.Run()

		if !finished || !ok {
			return false
		}
		// Counter consistency.
		if stats.Accesses == 0 || stats.Runtime <= 0 {
			return false
		}
		if stats.MajorFaults > 0 && stats.SysTime == 0 {
			return false
		}
		// Every page that came in was either demanded or prefetched; hits
		// can never exceed pages brought in plus file readahead.
		if stats.PrefetchHits > stats.PagesIn+uint64(stats.FileRefaults)*16 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(101))}); err != nil {
		t.Fatal(err)
	}
}

// Determinism: identical configurations produce bit-identical statistics.
func TestTaskDeterminism(t *testing.T) {
	run := func() Stats {
		r := newRig()
		return runTask(r, Config{
			Eng: r.eng, Name: "det", Spec: smallSpec(), Seed: 7,
			LocalRatio: 0.45, GranularityPages: 8,
			SwapPath: r.path(r.rdma, 4), FilePath: r.path(r.ssd, 4),
		})
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("identical runs diverged:\n%+v\n%+v", a, b)
	}
}

// Multi-threaded runs must partition the access budget, not multiply it.
func TestThreadsPartitionAccesses(t *testing.T) {
	spec := smallSpec()
	spec.Threads = 4
	r := newRig()
	stats := runTask(r, Config{
		Eng: r.eng, Name: "t4", Spec: spec, Seed: 1,
		LocalRatio: 0.6, SwapPath: r.path(r.rdma, 8), FilePath: r.path(r.ssd, 4),
	})
	// Total = init sweep (thread 0 only) + 4 × (MainAccesses/4).
	want := uint64(spec.MainAccesses)
	if stats.Accesses < want || stats.Accesses > want+uint64(spec.FootprintPages) {
		t.Fatalf("accesses %d outside [%d, %d]", stats.Accesses, want, want+uint64(spec.FootprintPages))
	}
}

// Multi-threaded execution overlaps faults: runtime is shorter than the
// single-threaded run of the same total work under memory pressure.
func TestThreadsOverlapFaults(t *testing.T) {
	measure := func(threads int) sim.Duration {
		spec := smallSpec()
		spec.Threads = threads
		spec.ComputePerAccess = 0
		r := newRig()
		return runTask(r, Config{
			Eng: r.eng, Name: "olap", Spec: spec, Seed: 1,
			LocalRatio: 0.4, SwapPath: r.path(r.rdma, 8), FilePath: r.path(r.ssd, 8),
		}).Runtime
	}
	one, four := measure(1), measure(4)
	if four >= one {
		t.Fatalf("4 threads (%v) not faster than 1 (%v) on a fault-bound run", four, one)
	}
}

// The slot log: a page re-swapped gets a fresh slot, and the kernel-style
// cluster never fetches stale entries.
func TestSlotClusterFreshness(t *testing.T) {
	spec := smallSpec()
	spec.WriteFraction = 0.9 // lots of dirty evictions → slot churn
	r := newRig()
	stats := runTask(r, Config{
		Eng: r.eng, Name: "slots", Spec: spec, Seed: 3,
		LocalRatio: 0.3, GranularityPages: 8,
		SwapPath: r.path(r.rdma, 4), FilePath: r.path(r.ssd, 4),
	})
	if stats.PagesIn == 0 {
		t.Fatal("no swap traffic")
	}
	// With heavy churn the run still terminates and hits stay bounded.
	if stats.PrefetchHits > stats.PagesIn {
		t.Fatalf("hits %d exceed pages in %d", stats.PrefetchHits, stats.PagesIn)
	}
}
