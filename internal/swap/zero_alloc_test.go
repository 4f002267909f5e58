package swap

import (
	"testing"

	"repro/internal/device"
	"repro/internal/pcie"
	"repro/internal/sim"
)

// Op, attempt, extent and admission records are recycled through per-path,
// per-backend and per-channel free lists, so a steady-state swap op
// allocates nothing. These tests run with observability and invariants
// off, as they are by default.

// nopHealth is a health sink that records nothing (and, being zero-sized,
// is stored in the interface without allocating).
type nopHealth struct{}

func (nopHealth) Record(bool) {}

func TestDeviceBackendZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	b := newRDMABackend(eng)
	b.SetWidth(4)
	onLat := func(sim.Duration) {}
	onResult := func(sim.Duration, error) {}
	for i := 0; i < 64; i++ {
		b.Submit(Extent{Pages: 32, Sequential: true}, onLat)
	}
	eng.Run()
	n := testing.AllocsPerRun(1000, func() {
		b.Submit(Extent{Pages: 1}, onLat)
		b.Submit(Extent{Pages: 32, Sequential: true}, nil)
		b.SubmitResult(Extent{Pages: 32, Write: true}, onResult)
		eng.Run()
	})
	if n != 0 {
		t.Errorf("steady-state backend extent allocates %.1f/op, want 0", n)
	}
}

func TestPathZeroAlloc(t *testing.T) {
	cases := []struct {
		name  string
		build func(eng *sim.Engine) *Path
	}{
		{"host-bypass", func(eng *sim.Engine) *Path {
			return NewPath(eng, newRDMABackend(eng), NewChannel(eng, "ch", 8))
		}},
		{"hierarchical", func(eng *sim.Engine) *Path {
			host := NewHostSwapStage(eng, DefaultHostWorkers)
			return NewHierarchicalPath(eng, newRDMABackend(eng), NewChannel(eng, "ch", 8), host)
		}},
		{"retry-healthy", func(eng *sim.Engine) *Path {
			p := NewPath(eng, newRDMABackend(eng), NewChannel(eng, "ch", 8))
			p.Retry = true
			p.Health = nopHealth{}
			return p
		}},
		{"aggregate-striped", func(eng *sim.Engine) *Path {
			h := device.NewHost(eng, pcie.Gen4, 16)
			agg := NewAggregateBackend(eng, "agg",
				NewDeviceBackend(eng, h.Attach(device.SpecConnectX5("rdma0"))),
				NewDeviceBackend(eng, h.Attach(device.SpecConnectX5("rdma1"))))
			return NewPath(eng, agg, NewChannel(eng, "ch", 8))
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eng := sim.NewEngine()
			p := c.build(eng)
			done := func(sim.Duration) {}
			for i := 0; i < 64; i++ {
				p.SwapIn(Extent{Pages: 8, Sequential: true}, done)
				p.SwapOut(Extent{Pages: 8}, done)
			}
			eng.Run()
			n := testing.AllocsPerRun(500, func() {
				p.SwapIn(Extent{Pages: 1}, done)
				p.SwapIn(Extent{Pages: 16, Sequential: true}, nil)
				p.SwapOut(Extent{Pages: 8}, done)
				eng.Run()
			})
			if n != 0 {
				t.Errorf("steady-state swap op allocates %.1f/op, want 0", n)
			}
			if ops := p.SwapIns.Value + p.SwapOuts.Value; ops != 2*64+3*501 {
				t.Errorf("%d ops completed, want %d", ops, 2*64+3*501)
			}
		})
	}
}

// A done that re-submits synchronously reuses the records just freed: a
// chain of sequential ops builds one record per level, and every op still
// completes exactly once.
func TestRecycleDoneResubmitReusesRecord(t *testing.T) {
	for _, retry := range []bool{false, true} {
		eng, _, p := retryTestPath(t, 4)
		if retry {
			p.Retry = true
		}
		const chain = 200
		fired := make([]int, chain)
		var next func(i int) func(sim.Duration)
		next = func(i int) func(sim.Duration) {
			return func(sim.Duration) {
				fired[i]++
				if i+1 < chain {
					p.SwapIn(Extent{Pages: 8, Sequential: true}, next(i+1))
				}
			}
		}
		p.SwapIn(Extent{Pages: 8, Sequential: true}, next(0))
		eng.Run()
		for i, n := range fired {
			if n != 1 {
				t.Fatalf("retry=%v: op %d completed %d times, want 1", retry, i, n)
			}
		}
		be := p.Backend().(*DeviceBackend)
		if p.SwapIns.Value != chain || be.Pending() != 0 {
			t.Fatalf("retry=%v: %d swap-ins, %d pending; want %d and 0", retry, p.SwapIns.Value, be.Pending(), chain)
		}
		if p.free.Len() != 1 || be.free.Len() != 1 {
			t.Fatalf("retry=%v: %d op records, %d extent records; want 1 each", retry, p.free.Len(), be.free.Len())
		}
		if retry && p.freeAttempts.Len() != 1 {
			t.Fatalf("%d attempt records, want 1", p.freeAttempts.Len())
		}
	}
}

// An attempt abandoned by its timeout keeps its record: its stripe lands
// late, after the retry has succeeded, while a chain of later ops is
// recycling every other record. The late completion must not settle any of
// them, so each op completes exactly once and no later op reports less than
// a healthy op's latency. A wrongly recycled attempt only does harm if the
// late completion lands while an op holds it, so the scenario is run at
// four phases of the chain's op cycle.
func TestRecycleLateCompletionAfterRetry(t *testing.T) {
	// A healthy single-page swap-in's latency, as the floor for the chain.
	heng, _, hp := retryTestPath(t, 4)
	var healthy sim.Duration
	hp.SwapIn(Extent{Pages: 1, Sequential: true}, func(l sim.Duration) { healthy = l })
	heng.Run()

	for k := 0; k < 4; k++ {
		eng, dev, p := retryTestPath(t, 4)
		p.Retry = true
		// 3µs base latency x ~1e4 = ~30ms: the first attempt outlives the
		// 10ms timeout and completes long after the retry (at 15ms, once
		// the device has recovered at 12ms) succeeded. Each k shifts the
		// late completion by 1.5µs.
		dev.Degrade(1e4+0.5*float64(k), 1)
		eng.At(sim.Time(12*sim.Millisecond), dev.Recover)
		const until = sim.Time(40 * sim.Millisecond)
		var fired []int
		var lats []sim.Duration
		var next func(i int) func(sim.Duration)
		next = func(i int) func(sim.Duration) {
			fired = append(fired, 0)
			return func(l sim.Duration) {
				fired[i]++
				lats = append(lats, l)
				if eng.Now() < until {
					p.SwapIn(Extent{Pages: 1, Sequential: true}, next(len(fired)))
				}
			}
		}
		p.SwapIn(Extent{Pages: 1, Sequential: true}, next(0))
		eng.Run()

		for i, n := range fired {
			if n != 1 {
				t.Fatalf("phase %d: op %d completed %d times, want 1", k, i, n)
			}
		}
		if len(fired) < 1000 {
			t.Fatalf("phase %d: chain ran %d ops, want it to span the late completion", k, len(fired))
		}
		for i, l := range lats[1:] {
			if l < healthy {
				t.Fatalf("phase %d: op %d reported %v, below a healthy op's %v", k, i+1, l, healthy)
			}
		}
		be := p.Backend().(*DeviceBackend)
		if p.SwapIns.Value != uint64(len(fired)) || p.Timeouts.Value != 1 || p.Retries.Value != 1 ||
			p.FailedOps.Value != 0 || be.Pending() != 0 {
			t.Fatalf("phase %d: swapins %d timeouts %d retries %d failed %d pending %d; want %d 1 1 0 0", k,
				p.SwapIns.Value, p.Timeouts.Value, p.Retries.Value, p.FailedOps.Value, be.Pending(), len(fired))
		}
		if dev.Ops.Value != uint64(len(fired))+1 {
			t.Fatalf("phase %d: device completed %d ops, want %d (every op plus the late one)", k, dev.Ops.Value, len(fired)+1)
		}
	}
}

// A device that stalls with a stripe queued drops it, so that extent never
// completes: its record is left holding the listener and is never reused,
// while the ops retried and submitted after recovery recycle records and
// each complete exactly once.
func TestRecycleStalledStripeNeverReused(t *testing.T) {
	// Three channels: extent A's two 7-page stripes and B's first take
	// them, and B's second stripe queues until the stall drops it.
	eng, dev, p := retryTestPath(t, 3)
	p.Retry = true
	be := p.Backend().(*DeviceBackend)
	fired := map[string]int{}
	swapIn := func(name string) {
		p.SwapIn(Extent{Pages: 14, Sequential: true}, func(sim.Duration) {
			fired[name]++
			if name == "C" {
				p.SwapIn(Extent{Pages: 14, Sequential: true}, func(sim.Duration) { fired["E"]++ })
			}
		})
	}
	swapIn("A")
	swapIn("B")
	eng.At(sim.Time(3*sim.Microsecond), dev.Stall)
	eng.At(sim.Time(12*sim.Millisecond), dev.Recover)
	eng.At(sim.Time(20*sim.Millisecond), func() {
		swapIn("C")
		swapIn("D")
	})
	eng.Run()

	for _, name := range []string{"A", "B", "C", "D", "E"} {
		if fired[name] != 1 {
			t.Fatalf("completions %v, want each op exactly once", fired)
		}
	}
	if dev.Dropped.Value != 1 || p.Timeouts.Value != 1 || p.Retries.Value != 1 ||
		p.FailedOps.Value != 0 || p.SwapIns.Value != 5 {
		t.Fatalf("dropped %d timeouts %d retries %d failed %d swapins %d; want 1 1 1 0 5",
			dev.Dropped.Value, p.Timeouts.Value, p.Retries.Value, p.FailedOps.Value, p.SwapIns.Value)
	}
	// B's first extent lost a stripe and stays pending for good.
	if be.Pending() != 1 {
		t.Fatalf("%d extents pending, want 1", be.Pending())
	}
	for r := be.free.Get(); r != nil; r = be.free.Get() {
		if r.remaining != 0 || r.onLat != nil || r.onResult != nil {
			t.Fatal("free list holds an extent record that is still in flight")
		}
	}
}
