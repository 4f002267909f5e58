package device

import (
	"testing"

	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/units"
)

func faultTestDevice(t *testing.T) (*sim.Engine, *Device) {
	t.Helper()
	eng := sim.NewEngine()
	h := NewHost(eng, pcie.Gen4, 16)
	return eng, h.Attach(SpecConnectX5("rdma0"))
}

func TestFailedDeviceFailsFast(t *testing.T) {
	eng, d := faultTestDevice(t)
	d.Fail()
	var lat sim.Duration
	var err error
	d.SubmitResult(Op{Size: units.PageSize, Sequential: true}, func(l sim.Duration, e error) {
		lat, err = l, e
	})
	eng.Run()
	if err != ErrDown {
		t.Fatalf("err=%v, want ErrDown", err)
	}
	if lat != FailFastLatency {
		t.Fatalf("fail-fast latency %v, want %v", lat, FailFastLatency)
	}
	if d.Failed.Value != 1 || d.Ops.Value != 0 {
		t.Fatalf("counters: failed=%d ops=%d", d.Failed.Value, d.Ops.Value)
	}
	if healthy(d) || !d.Down() {
		t.Fatal("failed device reports healthy")
	}
}

// healthy reports whether d is fully operational: not down, not stalled,
// not latency- or bandwidth-degraded.
func healthy(d *Device) bool {
	return !d.down && !d.stalled && d.latFactor == 1 && d.internal.Capacity() == d.spec.Bandwidth
}

func TestStalledDeviceDropsSilently(t *testing.T) {
	eng, d := faultTestDevice(t)
	d.Stall()
	called := false
	d.SubmitResult(Op{Size: units.PageSize, Sequential: true}, func(sim.Duration, error) {
		called = true
	})
	eng.Run()
	if called {
		t.Fatal("stalled device completed an op; it must drop silently")
	}
	if d.Dropped.Value != 1 {
		t.Fatalf("dropped=%d, want 1", d.Dropped.Value)
	}
	// Legacy Submit must also not fire its callback.
	d.Submit(Op{Size: units.PageSize, Sequential: true}, func(sim.Duration) { called = true })
	eng.Run()
	if called {
		t.Fatal("Submit fired done on a stalled device")
	}
}

func TestStallRecovery(t *testing.T) {
	eng, d := faultTestDevice(t)
	d.Stall()
	d.Recover()
	var err error
	ok := false
	d.SubmitResult(Op{Size: units.PageSize, Sequential: true}, func(_ sim.Duration, e error) {
		ok, err = true, e
	})
	eng.Run()
	if !ok || err != nil {
		t.Fatalf("recovered device failed: ok=%v err=%v", ok, err)
	}
	if !healthy(d) {
		t.Fatal("recovered device not healthy")
	}
}

func TestFailWinsOverStallAndRecover(t *testing.T) {
	eng, d := faultTestDevice(t)
	d.Fail()
	d.Stall()   // no-op on a dead device
	d.Recover() // permanent death has no recovery
	if !d.Down() || d.Stalled() {
		t.Fatalf("down=%v stalled=%v, want down only", d.Down(), d.Stalled())
	}
	var err error
	d.SubmitResult(Op{Size: units.PageSize, Sequential: true}, func(_ sim.Duration, e error) { err = e })
	eng.Run()
	if err != ErrDown {
		t.Fatalf("err=%v, want ErrDown after Fail", err)
	}
}

func TestDegradeScalesLatency(t *testing.T) {
	measure := func(lat float64) sim.Duration {
		eng, d := faultTestDevice(t)
		if lat > 1 {
			d.Degrade(lat, 1)
		}
		var got sim.Duration
		d.SubmitResult(Op{Size: units.PageSize, Sequential: true}, func(l sim.Duration, e error) {
			if e != nil {
				t.Fatalf("degraded op failed: %v", e)
			}
			got = l
		})
		eng.Run()
		return got
	}
	base := measure(1)
	slow := measure(4)
	// Base op latency is 4x; the payload streaming part is unchanged, so
	// end-to-end must grow by exactly 3 extra base latencies.
	wantExtra := 3 * SpecConnectX5("x").ReadLatency
	if diff := slow - base - wantExtra; diff > sim.Microsecond || diff < -sim.Microsecond {
		t.Fatalf("degraded latency %v vs base %v, want extra ~%v", slow, base, wantExtra)
	}
}

func TestDegradeScalesBandwidth(t *testing.T) {
	eng, d := faultTestDevice(t)
	full := d.internal.Capacity()
	d.Degrade(1, 0.25)
	if got := d.internal.Capacity(); float64(got) != float64(full)*0.25 {
		t.Fatalf("degraded media capacity %v, want quarter of %v", got, full)
	}
	if healthy(d) {
		t.Fatal("degraded device reports healthy")
	}
	d.Recover()
	if d.internal.Capacity() != full || !healthy(d) {
		t.Fatal("recover did not restore bandwidth")
	}
	_ = eng
}

func TestFaultWhileQueuedIsDetected(t *testing.T) {
	// An op admitted while healthy but still waiting for a channel when the
	// device dies must fail, not complete against dead hardware.
	eng := sim.NewEngine()
	h := NewHost(eng, pcie.Gen4, 16)
	spec := SpecTestbedSSD("ssd0")
	spec.Channels = 1
	d := h.Attach(spec)

	// Occupy the single channel with a large op, queue a second, then kill
	// the device while the second is still waiting.
	d.Submit(Op{Size: 64 * units.MiB, Sequential: true}, nil)
	var err error
	fired := false
	d.SubmitResult(Op{Size: units.PageSize, Sequential: true}, func(_ sim.Duration, e error) {
		fired, err = true, e
	})
	eng.After(sim.Microsecond, d.Fail)
	eng.Run()
	if !fired {
		t.Fatal("queued op never completed after device death")
	}
	if err != ErrDown {
		t.Fatalf("queued op err=%v, want ErrDown", err)
	}
}
