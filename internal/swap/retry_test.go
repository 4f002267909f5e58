package swap

import (
	"testing"

	"repro/internal/device"
	"repro/internal/pcie"
	"repro/internal/sim"
)

func retryTestPath(t *testing.T, channels int) (*sim.Engine, *device.Device, *Path) {
	t.Helper()
	eng := sim.NewEngine()
	h := device.NewHost(eng, pcie.Gen4, 16)
	spec := device.SpecConnectX5("rdma0")
	spec.Channels = channels
	d := h.Attach(spec)
	be := NewDeviceBackend(eng, d)
	ch := NewChannel(eng, "test", 8)
	return eng, d, NewPath(eng, be, ch)
}

// recorder captures per-attempt health outcomes.
type recorder struct{ outcomes []bool }

func (r *recorder) Record(ok bool) { r.outcomes = append(r.outcomes, ok) }

func TestRetryZeroValueIsLegacy(t *testing.T) {
	eng, _, p := retryTestPath(t, 4)
	fired := false
	p.SwapIn(Extent{Pages: 1}, func(sim.Duration) { fired = true })
	eng.Run()
	if !fired {
		t.Fatal("swap-in did not complete")
	}
	if p.Timeouts.Value != 0 || p.Retries.Value != 0 || p.FailedOps.Value != 0 {
		t.Fatal("legacy path touched retry counters")
	}
}

func TestRetryHealthySuccessRecorded(t *testing.T) {
	eng, _, p := retryTestPath(t, 4)
	rec := &recorder{}
	p.Retry = true
	p.Health = rec
	done := 0
	p.SwapIn(Extent{Pages: 1}, func(sim.Duration) { done++ })
	p.SwapOut(Extent{Pages: 2}, func(sim.Duration) { done++ })
	eng.Run()
	if done != 2 {
		t.Fatalf("completed %d ops, want 2", done)
	}
	if len(rec.outcomes) != 2 || !rec.outcomes[0] || !rec.outcomes[1] {
		t.Fatalf("health outcomes %v, want two successes", rec.outcomes)
	}
}

func TestRetryStalledDeviceTimesOutAndFailsThrough(t *testing.T) {
	eng, dev, p := retryTestPath(t, 4)
	rec := &recorder{}
	p.Retry = true
	p.Health = rec
	dev.Stall()

	fired := false
	var lat sim.Duration
	start := eng.Now()
	p.SwapIn(Extent{Pages: 1}, func(l sim.Duration) { fired, lat = true, l })
	eng.Run()
	_ = start

	if !fired {
		t.Fatal("op must fail through, not hang, when the device stalls")
	}
	if p.Timeouts.Value != 3 || p.Retries.Value != 2 || p.FailedOps.Value != 1 {
		t.Fatalf("timeouts=%d retries=%d failed=%d, want 3/2/1",
			p.Timeouts.Value, p.Retries.Value, p.FailedOps.Value)
	}
	// 3 attempts x 10ms timeout + backoffs 5ms and 10ms = ~45ms (+ frontend).
	want := 45 * sim.Millisecond
	if lat < want || lat > want+sim.Millisecond {
		t.Fatalf("fail-through latency %v, want ~%v", lat, want)
	}
	for i, ok := range rec.outcomes {
		if ok {
			t.Fatalf("outcome %d recorded success on a stalled device", i)
		}
	}
	if len(rec.outcomes) != 3 {
		t.Fatalf("recorded %d outcomes, want 3 attempts", len(rec.outcomes))
	}
}

func TestRetryDeadDeviceSurfacesErrors(t *testing.T) {
	eng, dev, p := retryTestPath(t, 4)
	p.Retry = true
	dev.Fail()
	fired := false
	p.SwapIn(Extent{Pages: 1}, func(sim.Duration) { fired = true })
	eng.Run()
	if !fired {
		t.Fatal("op against dead device did not fail through")
	}
	// Dead devices fail fast with an error; no attempt should hit the
	// timeout path.
	if p.Errors.Value != 3 || p.Timeouts.Value != 0 || p.FailedOps.Value != 1 {
		t.Fatalf("errors=%d timeouts=%d failed=%d, want 3/0/1",
			p.Errors.Value, p.Timeouts.Value, p.FailedOps.Value)
	}
}

func TestRetryRecoversMidwayThrough(t *testing.T) {
	// Device stalls, the first attempt times out, the device recovers
	// during the backoff: the retry succeeds and the op completes normally.
	eng, dev, p := retryTestPath(t, 4)
	rec := &recorder{}
	p.Retry = true
	p.Health = rec
	dev.Stall()
	eng.After(12*sim.Millisecond, dev.Recover)

	fired := false
	p.SwapIn(Extent{Pages: 1}, func(sim.Duration) { fired = true })
	eng.Run()
	if !fired {
		t.Fatal("op did not complete after recovery")
	}
	if p.FailedOps.Value != 0 {
		t.Fatal("op counted as failed despite eventual success")
	}
	if p.Retries.Value != 1 || p.Timeouts.Value != 1 {
		t.Fatalf("retries=%d timeouts=%d, want 1/1", p.Retries.Value, p.Timeouts.Value)
	}
	last := rec.outcomes[len(rec.outcomes)-1]
	if !last {
		t.Fatal("final outcome not recorded as success")
	}
}

func TestLateCompletionAfterTimeoutIgnored(t *testing.T) {
	// An op that is merely slow (not lost) completes after its attempt timer
	// fired: the late completion must not double-complete the op.
	eng, _, p := retryTestPath(t, 1)
	p.Retry = true
	// Sixteen 4 MiB swap-outs on the single write channel: the later ones
	// queue past the 10 ms RDMA timeout.
	done := make([]int, 16)
	for i := range done {
		p.SwapOut(Extent{Pages: 1024}, func(sim.Duration) { done[i]++ })
	}
	eng.Run()
	if p.Timeouts.Value == 0 {
		t.Fatal("no attempt outlived its timeout, so nothing completed late")
	}
	for i, n := range done {
		if n != 1 {
			t.Fatalf("op %d completed %d times, want exactly 1", i, n)
		}
	}
}
