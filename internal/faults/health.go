package faults

// Monitor is a per-backend health detector fed by the swap path: every op
// outcome (success, timeout, error) is Recorded, and when the failure share
// over a sliding window crosses monitorThreshold — or monitorTripConsecutive
// failures arrive back to back — the monitor latches unhealthy and fires
// OnUnhealthy exactly once. The failure-aware switching controller uses that
// signal to demote the backend and live-switch the VM (DESIGN.md "Failure
// model").
//
// The window decays by halving counts when full, so a long healthy history
// cannot mask a sudden failure burst.
//
// Concurrency contract: a Monitor is single-goroutine, like everything else
// that runs inside one sim.Engine — Record must be called from engine
// context (event callbacks of the engine that owns the swap path feeding
// it). The counters are plain ints on purpose; there is no interior locking.
type Monitor struct {
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
	// monitorTripConsecutive failures in a row trip immediately regardless
	// of the window share: fast detection of hard outages.
	monitorTripConsecutive = 6
)

// NewMonitor returns a healthy monitor.
func NewMonitor() *Monitor { return &Monitor{} }

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
	tripped := m.consecFail >= monitorTripConsecutive
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
