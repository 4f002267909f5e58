package faults

import (
	"testing"

	"repro/internal/sim"
)

func TestMonitorCountsWindow(t *testing.T) {
	m := NewMonitor()
	for i := 0; i < 10; i++ {
		m.Record(true)
	}
	m.Record(false)
	m.Record(false)
	if m.ok != 10 || m.fail != 2 || m.consecFail != 2 {
		t.Fatalf("window %d/%d consec %d, want 10/2/2", m.ok, m.fail, m.consecFail)
	}
	if m.Unhealthy() {
		t.Fatal("latched early")
	}
}

func TestMonitorResetClearsWindow(t *testing.T) {
	m := NewMonitor()
	for i := 0; i < 6; i++ {
		m.Record(false)
	}
	if !m.Unhealthy() {
		t.Fatal("did not latch on consecutive failures")
	}
	m.Reset()
	if m.Unhealthy() || m.ok != 0 || m.fail != 0 || m.consecFail != 0 {
		t.Fatalf("reset left window state: %+v", m)
	}
}

// tripBreaker records enough consecutive failures to open the circuit.
func tripBreaker(t *testing.T, b *Breaker) {
	t.Helper()
	for i := 0; i < 8 && b.State() != BreakerOpen; i++ {
		b.Record(false)
	}
	if b.State() != BreakerOpen {
		t.Fatal("breaker did not open on consecutive failures")
	}
}

func TestBreakerOpensAndRefuses(t *testing.T) {
	eng := sim.NewEngine()
	b := NewBreaker(eng, 1)
	if !b.Allow() {
		t.Fatal("closed breaker refused traffic")
	}
	tripBreaker(t, b)
	if b.Allow() {
		t.Fatal("open breaker allowed traffic")
	}
	if b.Opens() != 1 {
		t.Fatalf("opens %d", b.Opens())
	}
}

// advance moves the engine clock by d (events drive sim time).
func advance(eng *sim.Engine, d sim.Duration) {
	eng.RunUntil(eng.Now().Add(d))
}

func TestBreakerHalfOpenRecovery(t *testing.T) {
	eng := sim.NewEngine()
	b := NewBreaker(eng, 1)
	var transitions []BreakerState
	b.OnTransition = func(_, to BreakerState, _ sim.Time) { transitions = append(transitions, to) }
	tripBreaker(t, b)

	// Before the deadline: still refusing.
	if b.Allow() {
		t.Fatal("allowed before backoff elapsed")
	}
	// Past the worst-case first backoff (base 500ms × 1.25 jitter).
	advance(eng, 700*sim.Millisecond)
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state %v after backoff, want half-open", b.State())
	}
	// Permits peeks without consuming a probe slot.
	for i := 0; i < 10; i++ {
		if !b.Permits() {
			t.Fatal("Permits consumed probe slots")
		}
	}
	// Exactly halfOpenProbes probes are admitted.
	admitted := 0
	for i := 0; i < 10; i++ {
		if b.Allow() {
			admitted++
		}
	}
	if b.Permits() {
		t.Fatal("Permits true with no probe slots left")
	}
	if admitted != halfOpenProbes {
		t.Fatalf("half-open admitted %d, want %d", admitted, halfOpenProbes)
	}
	// All probes succeed → closed.
	for i := 0; i < halfOpenProbes; i++ {
		b.Record(true)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state %v after successful probes, want closed", b.State())
	}
	if b.Closes() != 1 {
		t.Fatalf("closes %d", b.Closes())
	}
	want := []BreakerState{BreakerOpen, BreakerHalfOpen, BreakerClosed}
	if len(transitions) != len(want) {
		t.Fatalf("transitions %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transitions %v, want %v", transitions, want)
		}
	}
}

func TestBreakerHalfOpenFailureReopensLonger(t *testing.T) {
	eng := sim.NewEngine()
	b := NewBreaker(eng, 1)
	tripBreaker(t, b)
	first := b.openUntil.Sub(eng.Now())

	advance(eng, 700*sim.Millisecond)
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state %v, want half-open", b.State())
	}
	b.Allow()
	b.Record(false) // probe fails → re-open
	if b.State() != BreakerOpen {
		t.Fatalf("state %v after failed probe, want open", b.State())
	}
	second := b.openUntil.Sub(eng.Now())
	// Doubled backoff: even with maximal jitter spread (×0.75 vs ×1.25),
	// 2×base×0.75 > 1×base×1.25.
	if second <= first {
		t.Fatalf("second open interval %v not longer than first %v", second, first)
	}
	if b.Opens() != 2 {
		t.Fatalf("opens %d", b.Opens())
	}
}

func TestBreakerBackoffCapped(t *testing.T) {
	eng := sim.NewEngine()
	b := NewBreaker(eng, 1)
	limit := sim.Duration(float64(breakerOpenMax) * 1.25)
	for round := 0; round < 8; round++ {
		tripBreaker(t, b)
		d := b.openUntil.Sub(eng.Now())
		if d > limit {
			t.Fatalf("round %d: backoff %v exceeds jittered cap %v", round, d, limit)
		}
		advance(eng, limit+sim.Millisecond)
		if b.State() != BreakerHalfOpen {
			t.Fatalf("round %d: state %v", round, b.State())
		}
		// Fail a probe to re-open at higher streak, except the last round.
		if round < 7 {
			b.Allow()
			b.Record(false)
			if b.State() != BreakerOpen {
				t.Fatalf("round %d: did not reopen", round)
			}
			advance(eng, limit+sim.Millisecond)
			b.State() // half-open
		}
	}
}

func TestBreakerDeterministicJitter(t *testing.T) {
	run := func() []sim.Duration {
		eng := sim.NewEngine()
		b := NewBreaker(eng, 7)
		var out []sim.Duration
		for i := 0; i < 4; i++ {
			tripBreaker(t, b)
			out = append(out, b.openUntil.Sub(eng.Now()))
			advance(eng, 12*sim.Second)
			b.Allow()
			b.Record(false)
			advance(eng, 12*sim.Second)
			if b.State() != BreakerHalfOpen {
				t.Fatalf("iteration %d: state %v", i, b.State())
			}
			for j := 0; j < halfOpenProbes; j++ {
				b.Allow()
				b.Record(true)
			}
			if b.State() != BreakerClosed {
				t.Fatalf("iteration %d: did not close", i)
			}
		}
		return out
	}
	a, c := run(), run()
	for i := range a {
		if a[i] != c[i] {
			t.Fatalf("jittered backoffs differ between identical runs: %v vs %v", a, c)
		}
	}
	// Jitter actually varies across draws.
	varies := false
	for i := 1; i < len(a); i++ {
		if a[i] != a[0] {
			varies = true
		}
	}
	if !varies {
		t.Fatalf("backoffs show no jitter: %v", a)
	}
}

func TestBreakerIgnoresLateOutcomesWhileOpen(t *testing.T) {
	eng := sim.NewEngine()
	b := NewBreaker(eng, 1)
	tripBreaker(t, b)
	// In-flight ops completing after the trip must not disturb the open
	// state or the backoff deadline.
	until := b.openUntil
	b.Record(true)
	b.Record(false)
	if b.State() != BreakerOpen || b.openUntil != until {
		t.Fatal("late outcomes disturbed the open state")
	}
}
