package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// traceRec is one observed event execution, for comparing runs.
type traceRec struct {
	shard int
	at    Time
	tag   string
}

// runPingPong builds and runs a deterministic multi-shard model: each shard
// runs a local event chain, and every third event sends a cross-shard
// message (with delay >= lookahead, or the given delay under zero lookahead)
// to the next shard. Keys come from stable (shard, counter) identity, never
// from wall-clock or goroutine order. Traces are per-shard: each shard's
// slice is touched only by events running on that shard, so the model is
// race-free under parallel windows, and the per-shard sequences are exactly
// what determinism promises to hold invariant.
func runPingPong(shards, workers, steps int, lookahead, msgDelay Duration) [][]traceRec {
	s := NewShards(shards, lookahead)
	traces := make([][]traceRec, shards)
	counters := make([]uint64, shards)
	for i := 0; i < shards; i++ {
		i := i
		var tick func()
		step := 0
		tick = func() {
			e := s.Engine(i)
			traces[i] = append(traces[i], traceRec{i, e.Now(), fmt.Sprintf("tick%d.%d", i, step)})
			step++
			if step >= steps {
				return
			}
			if step%3 == 0 {
				dst := (i + 1) % shards
				counters[i]++
				key := uint64(i+1)<<32 | counters[i]
				from, at := i, step
				s.Send(i, dst, msgDelay, key, func() {
					traces[dst] = append(traces[dst], traceRec{dst, s.Engine(dst).Now(),
						fmt.Sprintf("msg%d->%d@%d", from, dst, at)})
				})
			}
			e.After(Duration(10+i), tick)
		}
		s.Engine(i).At(Time(i), tick)
	}
	s.Run(workers)
	return traces
}

func TestShardsWorkerCountInvariant(t *testing.T) {
	const shards, steps = 4, 30
	la := Duration(50)
	ref := runPingPong(shards, 1, steps, la, la)
	for _, workers := range []int{2, 4, 8} {
		got := runPingPong(shards, workers, steps, la, la)
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("workers=%d diverged from serial reference", workers)
		}
	}
}

func TestShardsZeroLookaheadSerialMerge(t *testing.T) {
	// lookahead 0 must fall back to a serial merge: no deadlock, and the
	// per-shard trajectories must match a positive-lookahead run whose
	// message delays are identical. We use delay 50 for messages in both
	// runs; only the lookahead differs (50 vs 0), so windows vs serial merge
	// is the only changed variable.
	const shards, steps = 3, 30
	windowed := runPingPong(shards, 4, steps, 50, 50)
	serial := runPingPong(shards, 4, steps, 0, 50)
	if !reflect.DeepEqual(windowed, serial) {
		t.Fatalf("zero-lookahead serial merge diverged from windowed run")
	}
}

func TestShardsZeroLookaheadSameInstantKeyOrder(t *testing.T) {
	// Two shards send zero-delay messages to shard 2 at the same instant.
	// Delivery must follow key order, not send order or shard order.
	s := NewShards(3, 0)
	var got []string
	s.Engine(0).At(5, func() {
		s.Send(0, 2, 0, 20, func() { got = append(got, "key20") })
	})
	s.Engine(1).At(5, func() {
		s.Send(1, 2, 0, 10, func() { got = append(got, "key10") })
	})
	s.Run(1)
	want := []string{"key10", "key20"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("same-instant delivery order = %v, want %v", got, want)
	}
}

func TestShardsCrossShardDeliveryTime(t *testing.T) {
	s := NewShards(2, Duration(100))
	var at Time
	s.Engine(0).At(7, func() {
		s.Send(0, 1, 150, 1, func() { at = s.Engine(1).Now() })
	})
	s.Run(2)
	if at != 157 {
		t.Fatalf("cross-shard delivery at %v, want 157", at)
	}
}

func TestShardsSendValidation(t *testing.T) {
	mustPanic := func(name, want string, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: no panic", name)
			}
			if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
				t.Fatalf("%s: panic %q does not mention %q", name, msg, want)
			}
		}()
		fn()
	}
	s := NewShards(2, Duration(100))
	mustPanic("below lookahead", "below lookahead", func() { s.Send(0, 1, 50, 1, func() {}) })
	mustPanic("negative delay", "negative", func() { s.Send(0, 1, -1, 1, func() {}) })
	mustPanic("bad src", "invalid shards", func() { s.Send(-1, 1, 200, 1, func() {}) })
	mustPanic("bad dst", "invalid shards", func() { s.Send(0, 2, 200, 1, func() {}) })
	mustPanic("zero shards", "at least one", func() { NewShards(0, 0) })
	mustPanic("negative lookahead", "negative lookahead", func() { NewShards(1, -1) })
}

func TestShardsLocalSendIsPlainSchedule(t *testing.T) {
	// src == dst takes the plain After path: no lookahead floor applies.
	s := NewShards(2, Duration(100))
	fired := false
	s.Engine(0).At(3, func() {
		s.Send(0, 0, 1, 0, func() { fired = true })
	})
	s.Run(1)
	if !fired {
		t.Fatal("local send did not fire")
	}
}

func TestShardsRunUntilAdvancesAllClocks(t *testing.T) {
	s := NewShards(3, Duration(10))
	s.Engine(0).At(5, func() {})
	s.RunUntil(1000, 2)
	for i := 0; i < len(s.engines); i++ {
		if now := s.Engine(i).Now(); now != 1000 {
			t.Fatalf("shard %d clock at %v, want 1000", i, now)
		}
	}
}

func TestShardsRunUntilIncludesBoundary(t *testing.T) {
	s := NewShards(2, Duration(10))
	fired := 0
	s.Engine(0).At(100, func() { fired++ })
	s.Engine(1).At(101, func() { fired++ })
	s.RunUntil(100, 1)
	if fired != 1 {
		t.Fatalf("events fired = %d, want 1 (boundary inclusive, beyond excluded)", fired)
	}
	s.Run(1)
	if fired != 2 {
		t.Fatalf("resumed run fired = %d, want 2", fired)
	}
}

func TestShardsChainedSendsAcrossWindows(t *testing.T) {
	// A relay: 0 -> 1 -> 2 -> 0, each hop at exactly the lookahead. Verifies
	// messages generated *by delivered messages* keep flowing across many
	// windows.
	const hops = 30
	s := NewShards(3, Duration(100))
	var times []Time
	var relay func(hop int)
	relay = func(hop int) {
		if hop >= hops {
			return
		}
		src := hop % 3
		dst := (hop + 1) % 3
		s.Send(src, dst, 100, uint64(hop), func() {
			times = append(times, s.Engine(dst).Now())
			relay(hop + 1)
		})
	}
	s.Engine(0).At(0, func() { relay(0) })
	s.Run(3)
	if len(times) != hops {
		t.Fatalf("relay delivered %d hops, want %d", len(times), hops)
	}
	for i, at := range times {
		if want := Time(100 * (i + 1)); at != want {
			t.Fatalf("hop %d at %v, want %v", i, at, want)
		}
	}
}

func TestShardsStats(t *testing.T) {
	ResetShardRunTotals()
	s := NewShards(2, Duration(100))
	for i := 0; i < 10; i++ {
		i := i
		s.Engine(i%2).At(Time(i*10), func() {})
	}
	s.Engine(0).At(0, func() {
		s.Send(0, 1, 100, 1, func() {})
	})
	s.Run(2)
	st := s.Stats()
	if st.Events != 12 { // 10 + trigger + delivered message
		t.Fatalf("Events = %d, want 12", st.Events)
	}
	if st.Messages != 1 {
		t.Fatalf("Messages = %d, want 1", st.Messages)
	}
	if st.Windows == 0 {
		t.Fatal("Windows = 0, want > 0")
	}
	tot := ShardRunTotals()
	if tot.Events != st.Events {
		t.Fatalf("package totals events = %d, want %d", tot.Events, st.Events)
	}
	if tot.Messages != st.Messages {
		t.Fatalf("package totals messages = %d, want %d", tot.Messages, st.Messages)
	}
	// Repeated accounting must fold deltas, not double-count.
	s.Engine(0).At(s.Engine(0).Now()+1, func() {})
	s.Run(2)
	if tot2 := ShardRunTotals(); tot2.Events != st.Events+1 {
		t.Fatalf("package totals after second run = %d, want %d", tot2.Events, st.Events+1)
	}
	ResetShardRunTotals()
	if tot3 := ShardRunTotals(); tot3.Events != 0 {
		t.Fatalf("totals after reset = %d, want 0", tot3.Events)
	}
}

func TestShardsShardCountInvariantWithStableKeys(t *testing.T) {
	// The same logical model — N actors exchanging keyed messages — must
	// produce identical per-actor trajectories whether actors share one
	// shard or get one shard each, because message keys come from actor
	// identity, not shard identity. This is the property the datacenter
	// arena relies on to make -shards output-invariant.
	const actors, rounds = 6, 8
	la := Duration(100)

	type rec struct {
		at  Time
		tag string
	}
	run := func(shards int) [][]rec {
		s := NewShards(shards, la)
		traces := make([][]rec, actors)
		var ctr = make([]uint64, actors)
		shardOf := func(a int) int { return a % shards }
		var start func(a, round int)
		start = func(a, round int) {
			if round >= rounds {
				return
			}
			src := shardOf(a)
			e := s.Engine(src)
			e.After(Duration(7+a), func() {
				traces[a] = append(traces[a], rec{e.Now(), fmt.Sprintf("work%d", round)})
				peer := (a + 1) % actors
				ctr[a]++
				key := uint64(a+1)<<32 | ctr[a]
				d := la
				if shardOf(a) == shardOf(peer) {
					// same-shard messages may be faster; keep the delay
					// identical across layouts so trajectories match.
					d = la
				}
				s.Send(shardOf(a), shardOf(peer), d, key, func() {
					traces[peer] = append(traces[peer], rec{s.Engine(shardOf(peer)).Now(),
						fmt.Sprintf("from%d.r%d", a, round)})
				})
				start(a, round+1)
			})
		}
		for a := 0; a < actors; a++ {
			start(a, 0)
		}
		s.Run(1)
		return traces
	}
	ref := run(1)
	for _, shards := range []int{2, 3, 6} {
		if got := run(shards); !reflect.DeepEqual(ref, got) {
			t.Fatalf("shard count %d diverged from single-shard reference", shards)
		}
	}
}

func TestShardsRandomizedWorkerInvariance(t *testing.T) {
	// Fuzz: random event DAGs with random (lookahead-respecting) cross-shard
	// sends; per-shard traces must be identical for 1 vs 8 workers.
	for trial := 0; trial < 20; trial++ {
		seed := int64(trial)
		run := func(workers int) [][]traceRec {
			const shards = 4
			la := Duration(20 + seed)
			s := NewShards(shards, la)
			traces := make([][]traceRec, shards)
			var ctr = make([]uint64, shards)
			// One rng per shard: a shard's events run serially, so its rng
			// sequence depends only on that shard's (deterministic)
			// execution order — never on cross-shard wall-clock interleaving.
			rngs := make([]*rand.Rand, shards)
			for sh := range rngs {
				rngs[sh] = rand.New(rand.NewSource(seed*int64(shards) + int64(sh)))
			}
			var spawn func(shard, depth int)
			spawn = func(shard, depth int) {
				e := s.Engine(shard)
				rng := rngs[shard]
				e.After(Duration(rng.Intn(30)), func() {
					traces[shard] = append(traces[shard], traceRec{shard, e.Now(), fmt.Sprintf("d%d", depth)})
					if depth < 4 {
						if rng.Intn(2) == 0 {
							dst := rng.Intn(shards)
							if dst != shard {
								ctr[shard]++
								key := uint64(shard+1)<<32 | ctr[shard]
								s.Send(shard, dst, la+Duration(rng.Intn(40)), key, func() {
									traces[dst] = append(traces[dst], traceRec{dst, s.Engine(dst).Now(), "x"})
								})
							}
						}
						spawn(shard, depth+1)
					}
				})
			}
			for sh := 0; sh < shards; sh++ {
				spawn(sh, 0)
			}
			s.Run(workers)
			return traces
		}
		// A shard's rng replays the same sequence only if callback execution
		// order within that shard is identical — which is exactly the
		// determinism property under test. A divergence shows up as a trace
		// mismatch (or a panic from an out-of-range send).
		if a, b := run(1), run(8); !reflect.DeepEqual(a, b) {
			t.Fatalf("trial %d: workers 1 vs 8 diverged", trial)
		}
	}
}
