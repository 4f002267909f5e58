package sim

import "testing"

// Microbenchmarks of the event kernel's hot paths. The numbers of record
// live in BENCH_sim.json (before/after each kernel rework); CI runs these
// with -benchtime=1x as a smoke test so they cannot rot.

// BenchmarkEngineSchedule is the steady-state schedule-fire cycle: events are
// scheduled in batches and drained, so the heap, slot table, and free lists
// reach a stable size. Target: 0 allocs/op.
func BenchmarkEngineSchedule(b *testing.B) {
	eng := NewEngine()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.After(Duration(i%100), fn)
		if i%512 == 511 {
			eng.Run()
		}
	}
	eng.Run()
}

// BenchmarkEngineCancel schedules and immediately cancels, measuring the
// lazy-cancellation path (tombstones are dropped on the periodic drain).
func BenchmarkEngineCancel(b *testing.B) {
	eng := NewEngine()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := eng.After(Duration(i%100), fn)
		h.Cancel(eng)
		if i%512 == 511 {
			eng.Run()
		}
	}
	eng.Run()
}

// BenchmarkEngineCancelAllCancelled is the worst-case tombstone shape: a
// large heap where every event gets cancelled and nothing drains it. Without
// compaction the heap keeps absorbing tombstones and every later schedule
// sifts through the graveyard; with compaction the shape recovers in
// amortized O(1) per cancel while the schedule path stays zero-alloc.
func BenchmarkEngineCancelAllCancelled(b *testing.B) {
	eng := NewEngine()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := eng.After(Duration(i%1000), fn)
		h.Cancel(eng)
	}
	eng.Run()
}

// BenchmarkShardsWindowed measures the sharded kernel end to end: four
// shards running local event chains with periodic keyed cross-shard sends,
// synchronized by lookahead windows. Driven with one worker so the number is
// pure kernel overhead (windows, barriers, merge), comparable across
// machines regardless of core count.
func BenchmarkShardsWindowed(b *testing.B) {
	b.ReportAllocs()
	s := NewShards(4, 100)
	counters := make([]uint64, 4)
	remaining := b.N
	for i := 0; i < 4; i++ {
		i := i
		var tick func()
		tick = func() {
			if remaining <= 0 {
				return
			}
			remaining--
			if remaining%64 == 0 {
				dst := (i + 1) % 4
				counters[i]++
				s.Send(i, dst, 100, uint64(i+1)<<32|counters[i], func() {})
			}
			s.Engine(i).After(Duration(10+i), tick)
		}
		s.Engine(i).At(Time(i), tick)
	}
	b.ResetTimer()
	s.Run(1)
}

// BenchmarkEngineChurn is the timer-wheel-ish workload: a fixed population
// of timers where every firing reschedules itself, the pattern device
// channels and retry timeouts produce. Measures fire+reschedule cost.
func BenchmarkEngineChurn(b *testing.B) {
	eng := NewEngine()
	const timers = 1024
	remaining := b.N
	fns := make([]func(), timers)
	for i := range fns {
		i := i
		fns[i] = func() {
			if remaining > 0 {
				remaining--
				eng.After(Duration(1+i%7), fns[i])
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range fns {
		eng.After(Duration(i%7), fns[i])
	}
	eng.Run()
}

// BenchmarkEngineRetryTimer is the pattern of serving swap paths: 20 ops
// are in flight, each a live event that fires and reschedules itself, and
// each firing cancels the 10 ms retry timer its op armed at the previous
// firing and arms a new one, through the timeout's DelayLine. The timers
// never fire. Target: 0 allocs/op.
func BenchmarkEngineRetryTimer(b *testing.B) {
	eng := NewEngine()
	timeouts := eng.Delay(10 * Millisecond)
	expire := func() { b.Fatal("a retry timer fired") }
	const live = 20
	fns := make([]func(), live)
	var armed [live]Handle
	remaining := b.N
	for i := range fns {
		i := i
		fns[i] = func() {
			armed[i].Cancel(eng)
			if remaining > 0 {
				remaining--
				armed[i] = timeouts.Schedule(expire)
				eng.After(Duration(1+i)*Microsecond, fns[i])
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range fns {
		eng.After(Duration(1+i)*Microsecond, fns[i])
	}
	eng.Run()
}

// BenchmarkEngineSameInstant is a chain of zero-delay events, the pattern of
// every Resource grant: each firing schedules the next with Immediately.
// The heap holds a steady population of pending timers, as a running model's
// does, which same-instant events no longer have to sift past. Target:
// 0 allocs/op.
func BenchmarkEngineSameInstant(b *testing.B) {
	eng := NewEngine()
	fn := func() {}
	for i := 0; i < 48; i++ {
		eng.After(Duration(1+i)*Second, fn)
	}
	remaining := b.N
	var next func()
	next = func() {
		if remaining > 0 {
			remaining--
			eng.Immediately(next)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	eng.Immediately(next)
	eng.RunUntil(eng.Now())
}

// BenchmarkStationSubmit is the queueing-station hot path behind every
// device channel: submit, wait for a server, serve, complete.
func BenchmarkStationSubmit(b *testing.B) {
	eng := NewEngine()
	st := NewStation(eng, 4)
	done := func(Duration) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Submit(Duration(10+i%90), done)
		if i%256 == 255 {
			eng.Run()
		}
	}
	eng.Run()
}
