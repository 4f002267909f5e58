package faults

import (
	"fmt"
	"math/rand"

	"repro/internal/sim"
)

// BreakerState is a circuit breaker's position.
type BreakerState int

// The classic three-state breaker machine.
const (
	// BreakerClosed: traffic flows; the monitor watches for failure bursts.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the backend is condemned; all traffic is refused until
	// the backoff deadline passes.
	BreakerOpen
	// BreakerHalfOpen: past the deadline, a bounded number of probe ops are
	// let through; their verdict closes or re-opens the circuit.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("breaker(%d)", int(s))
	}
}

// Breaker is a per-backend circuit breaker for a serving loop: it stops
// dispatching onto a backend whose swap ops are failing, waits out a
// jittered exponential backoff, then re-admits a trickle of probe work to
// decide whether the backend has recovered (half-open probing).
//
// Failure detection is delegated to an embedded Monitor, so the trip
// conditions (window share, consecutive run) are exactly the ones the
// failure-aware switching controller uses. The breaker itself adds the
// state machine and the backoff clock.
//
// Like Monitor, a Breaker is single-goroutine: Allow and Record must be
// called from the owning engine's event context. Backoff jitter comes from
// a private seeded rand.Rand, so runs are deterministic and two breakers
// with the same seed that trip at the same instant still draw the same
// deadlines (determinism, not entropy, is the point of the jitter: it
// exists so the *model* includes de-synchronized retry storms, not so runs
// differ).
type Breaker struct {
	// OnTransition, when set, observes every state change (for timelines).
	OnTransition func(from, to BreakerState, at sim.Time)

	eng     *sim.Engine
	rng     *rand.Rand
	monitor *Monitor

	state      BreakerState
	openUntil  sim.Time
	openStreak int // consecutive opens without an intervening close
	probesLeft int
	probesOK   int

	opens, closes uint64
}

const (
	// breakerOpenBase is the first open interval; each consecutive re-open
	// doubles it up to breakerOpenMax.
	breakerOpenBase = 500 * sim.Millisecond
	breakerOpenMax  = 8 * sim.Second
	// halfOpenProbes is how many probe ops half-open admits; all of them
	// must succeed to close the circuit — any failure re-opens with
	// doubled backoff.
	halfOpenProbes = 4
)

// NewBreaker builds a closed breaker on eng, with jitter drawn from seed.
func NewBreaker(eng *sim.Engine, seed int64) *Breaker {
	b := &Breaker{
		eng:     eng,
		rng:     rand.New(rand.NewSource(seed)),
		monitor: NewMonitor(),
	}
	// Serving ops are plentiful; trip on a short hard run so an outage is
	// cut off within a few ops rather than a whole window.
	b.monitor.TripConsecutive = 4
	return b
}

// State reports the breaker position, resolving an expired open interval to
// half-open first (the transition happens on observation — there is no
// timer event, so an idle backend parks at open until someone asks).
func (b *Breaker) State() BreakerState {
	if b.state == BreakerOpen && b.eng.Now() >= b.openUntil {
		b.transition(BreakerHalfOpen)
		b.probesLeft = halfOpenProbes
		b.probesOK = 0
		b.monitor.Reset()
	}
	return b.state
}

// Allow reports whether a new dispatch may target this backend, consuming a
// probe slot in half-open state.
func (b *Breaker) Allow() bool {
	switch b.State() {
	case BreakerClosed:
		return true
	case BreakerHalfOpen:
		if b.probesLeft > 0 {
			b.probesLeft--
			return true
		}
		return false
	default:
		return false
	}
}

// Permits is the non-consuming form of Allow: it reports whether a
// dispatch *could* target this backend right now without claiming a
// half-open probe slot. Selection logic (which probes every backend before
// picking one) must use Permits; the winner then claims its slot with
// Allow. Using Allow during selection would burn probe slots on backends
// that were never chosen.
func (b *Breaker) Permits() bool {
	switch b.State() {
	case BreakerClosed:
		return true
	case BreakerHalfOpen:
		return b.probesLeft > 0
	default:
		return false
	}
}

// Record feeds one op outcome from the guarded backend's swap path.
// Breaker implements swap.HealthSink, so it can be installed directly as a
// path's Health field.
func (b *Breaker) Record(succeeded bool) {
	switch b.State() {
	case BreakerClosed:
		b.monitor.Record(succeeded)
		if b.monitor.Unhealthy() {
			b.open()
		}
	case BreakerHalfOpen:
		if !succeeded {
			b.open()
			return
		}
		b.probesOK++
		if b.probesOK >= halfOpenProbes {
			b.openStreak = 0
			b.closes++
			b.monitor.Reset()
			b.transition(BreakerClosed)
		}
	default:
		// Ops issued before the trip can still complete while open; their
		// outcomes are history, not evidence.
	}
}

// open condemns the backend: exponential backoff with ±25% deterministic
// jitter, doubled per consecutive open, capped at breakerOpenMax.
func (b *Breaker) open() {
	d := breakerOpenBase << b.openStreak
	if d > breakerOpenMax || d <= 0 {
		d = breakerOpenMax
	}
	// Jitter in [0.75, 1.25): de-synchronizes half-open probes across
	// backends that tripped together.
	d = sim.Duration(float64(d) * (0.75 + 0.5*b.rng.Float64()))
	b.openStreak++
	b.opens++
	b.openUntil = b.eng.Now().Add(d)
	b.monitor.Reset()
	b.transition(BreakerOpen)
}

func (b *Breaker) transition(to BreakerState) {
	from := b.state
	if from == to {
		return
	}
	b.state = to
	if b.OnTransition != nil {
		b.OnTransition(from, to, b.eng.Now())
	}
}

// Opens reports how many times the circuit opened.
func (b *Breaker) Opens() uint64 { return b.opens }

// Closes reports how many times the circuit closed after recovery probing.
func (b *Breaker) Closes() uint64 { return b.closes }
