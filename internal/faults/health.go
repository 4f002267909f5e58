package faults

// Monitor is a per-backend health detector fed by the swap path: every op
// outcome (success, timeout, error) is Recorded, and when the failure share
// over a sliding window crosses monitorThreshold — or TripConsecutive failures
// arrive back to back — the monitor latches unhealthy and fires OnUnhealthy
// exactly once. The failure-aware switching controller uses that signal to
// demote the backend and live-switch the VM (DESIGN.md "Failure model").
//
// The window decays by halving counts when full, so a long healthy history
// cannot mask a sudden failure burst, and a recovered backend does not stay
// condemned by ancient errors if the monitor is Reset and reused.
//
// Concurrency contract: a Monitor is single-goroutine, like everything else
// that runs inside one sim.Engine — Record, Reset and Unhealthy must all be
// called from engine context (event callbacks of the engine that owns the
// swap path feeding it). The counters are plain ints on purpose; there is
// no interior locking.
type Monitor struct {
	// TripConsecutive failures in a row trip immediately regardless of
	// the window share (NewMonitor sets 6): fast detection of hard outages.
	TripConsecutive int
	// OnUnhealthy fires exactly once, at the Record that trips the
	// monitor. It runs inline in engine context, so it may schedule
	// events (e.g. start a backend switch).
	OnUnhealthy func()

	ok, fail   int // current window
	consecFail int
	unhealthy  bool
}

const (
	// monitorWindow is the op count per evaluation window.
	monitorWindow = 64
	// monitorThreshold is the window failure share that trips unhealthy.
	monitorThreshold = 0.5
	// monitorMinSamples gates the threshold test: a single early failure
	// must not condemn a backend.
	monitorMinSamples = 8
)

// NewMonitor returns a monitor with the default trip conditions.
func NewMonitor() *Monitor {
	return &Monitor{TripConsecutive: 6}
}

// Record feeds one op outcome.
func (m *Monitor) Record(succeeded bool) {
	if succeeded {
		m.ok++
		m.consecFail = 0
	} else {
		m.fail++
		m.consecFail++
	}
	if m.ok+m.fail >= monitorWindow {
		// Decay: keep the trend, forget the bulk.
		m.ok /= 2
		m.fail /= 2
	}
	if m.unhealthy {
		return
	}
	tripped := m.consecFail >= m.TripConsecutive
	if n := m.ok + m.fail; !tripped && n >= monitorMinSamples {
		tripped = float64(m.fail)/float64(n) >= monitorThreshold
	}
	if tripped {
		m.unhealthy = true
		if m.OnUnhealthy != nil {
			m.OnUnhealthy()
		}
	}
}

// Unhealthy reports whether the monitor has latched.
func (m *Monitor) Unhealthy() bool { return m.unhealthy }

// Reset clears window state, the consecutive-failure run, and the unhealthy
// latch so the monitor can be re-armed (e.g. after the faulted backend was
// repaired and re-admitted, or when a circuit breaker transitions to
// half-open and wants a fresh verdict from the probe ops).
func (m *Monitor) Reset() {
	m.ok, m.fail, m.consecFail = 0, 0, 0
	m.unhealthy = false
}
