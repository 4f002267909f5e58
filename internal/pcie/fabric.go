package pcie

import (
	"fmt"
	"math"

	"repro/internal/invariant"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/units"
)

// Registered invariants for the fluid-flow arbiter. Progressive filling must
// never oversubscribe a link (allocated rate ≤ capacity) or push a capped
// flow past its cap, and a link can never have carried more payload than its
// high-water bandwidth × elapsed virtual time — the conservation law behind
// every throughput figure.
var (
	ckLinkAlloc      = invariant.Register("pcie.link.no-oversubscription")
	ckFlowCap        = invariant.Register("pcie.flow.rate-within-cap")
	ckLinkThroughput = invariant.Register("pcie.link.throughput-bound")
)

// rateEpsilon absorbs float rounding in rate allocation checks.
const rateEpsilon = 1e-6

// Link is a capacity-constrained segment of the I/O path: a PCIe slot, the
// host's root-complex budget, a device's internal bandwidth, or a network
// hop. Flows traversing a link share its capacity max-min fairly.
type Link struct {
	Name     string
	capacity float64 // bytes/sec
	// maxCapacity is the high-water capacity ever configured, the bound for
	// the throughput invariant (capacity may be degraded mid-run).
	maxCapacity float64

	// bytesMoved accumulates payload carried, for utilization reporting.
	bytesMoved float64

	// Scratch fields used during rate recomputation.
	alloc    float64
	unfrozen int

	// obsUtil, when non-nil, receives the link's instantaneous allocation
	// fraction at every fabric rebalance.
	obsUtil *metrics.BucketTimeline
}

// Capacity reports the link's bandwidth.
func (l *Link) Capacity() units.BytesPerSec { return units.BytesPerSec(l.capacity) }

// SetCapacity changes the link bandwidth. Rates of in-flight flows are
// re-shared on the next fabric event; callers that need the change to take
// effect immediately should call Fabric.Rebalance.
func (l *Link) SetCapacity(c units.BytesPerSec) {
	l.capacity = float64(c)
	if l.capacity > l.maxCapacity {
		l.maxCapacity = l.capacity
	}
}

// Utilization reports mean utilization over [0, now].
func (l *Link) Utilization(now sim.Time) float64 {
	secs := now.Seconds()
	if secs <= 0 || l.capacity <= 0 {
		return 0
	}
	return l.bytesMoved / (l.capacity * secs)
}

// flow is an in-progress transfer across a path of links. Its instantaneous
// rate is the max-min fair share across every link it traverses, further
// bounded by an optional per-flow cap (e.g. one RDMA queue pair's limit).
// Flows are recycled through the fabric's free list once they complete, so
// no pointer to one escapes the package.
type flow struct {
	path      []*Link
	remaining float64
	size      float64
	rate      float64
	cap       float64 // 0 = uncapped
	done      func(at sim.Time)
	frozen    bool // scratch during recompute

	// Observability (populated only when the fabric is recorded): start
	// stamp and the ideal uncontended duration — size over the narrowest
	// capacity on the path (and the flow cap). The difference between actual
	// and ideal duration is the time lost to bandwidth arbitration, exported
	// as the pcie/alloc-wait histogram.
	start sim.Time
	ideal sim.Duration
}

// Fabric is the fluid-flow bandwidth simulator. Transfers are modeled as
// fluid flows whose rates are recomputed (progressive-filling max-min
// fairness, honoring per-flow caps) whenever a flow starts or completes.
type Fabric struct {
	eng        *sim.Engine
	links      []*Link
	flows      []*flow
	lastUpdate sim.Time
	next       sim.Handle
	hasNext    bool

	// free recycles completed flows; completed is onCompletion's reused
	// scratch list; completeFn is onCompletion bound once, so scheduling the
	// next completion does not rebuild the method value.
	free       sim.FreeList[flow]
	completed  []*flow
	completeFn func()

	// Observability handle, resolved once at construction (nil when off).
	rec *obs.Recorder
}

// NewFabric creates an empty fabric on the engine.
func NewFabric(eng *sim.Engine) *Fabric {
	fb := &Fabric{eng: eng, lastUpdate: eng.Now()}
	fb.completeFn = fb.onCompletion
	if obs.On {
		fb.rec = obs.Rec(eng)
	}
	return fb
}

// NewLink adds a link with the given capacity to the fabric.
func (fb *Fabric) NewLink(name string, capacity units.BytesPerSec) *Link {
	if capacity <= 0 {
		panic(fmt.Sprintf("pcie: link %q with non-positive capacity", name))
	}
	l := &Link{Name: name, capacity: float64(capacity), maxCapacity: float64(capacity)}
	fb.links = append(fb.links, l)
	if fb.rec != nil {
		r := fb.rec
		track := "pcie/" + name
		l.obsUtil = r.Timeline(track+"/alloc", obs.ModeMean)
		r.OnSeal(func() {
			r.Gauge(track + "/utilization").Set(l.Utilization(fb.eng.Now()))
			r.Counter(track + "/bytes").Add(l.bytesMoved)
		})
	}
	return l
}

// Transfer starts moving size bytes across path and calls done (if non-nil)
// when the last byte lands. A zero/negative size completes immediately. An
// empty path panics — latency-only waits belong on the engine directly. The
// fabric keeps path until the transfer completes, so the caller must not
// modify it in the meantime.
func (fb *Fabric) Transfer(size int64, path []*Link, done func(at sim.Time)) {
	fb.TransferCapped(size, 0, path, done)
}

// TransferCapped is Transfer with a per-flow rate cap (0 = uncapped).
func (fb *Fabric) TransferCapped(size int64, rateCap units.BytesPerSec, path []*Link, done func(at sim.Time)) {
	if len(path) == 0 {
		panic("pcie: transfer with empty path")
	}
	if size <= 0 {
		if done != nil {
			fb.eng.Immediately(func() { done(fb.eng.Now()) })
		}
		return
	}
	f := fb.newFlow()
	f.path, f.remaining, f.size, f.cap, f.done = path, float64(size), float64(size), float64(rateCap), done
	if fb.rec != nil {
		f.start = fb.eng.Now()
		minCap := math.Inf(1)
		for _, l := range path {
			if l.capacity > 0 && l.capacity < minCap {
				minCap = l.capacity
			}
		}
		if f.cap > 0 && f.cap < minCap {
			minCap = f.cap
		}
		if !math.IsInf(minCap, 1) {
			f.ideal = sim.Duration(f.size / minCap * float64(sim.Second))
		}
	}
	fb.advance()
	fb.flows = append(fb.flows, f)
	fb.rebalance()
}

// newFlow pops a recycled flow or allocates a fresh one.
func (fb *Fabric) newFlow() *flow {
	if f := fb.free.Get(); f != nil {
		return f
	}
	return &flow{}
}

// Rebalance advances accounting to the current instant and recomputes all
// flow rates. It is called automatically on flow arrival and completion;
// call it manually after changing link capacities mid-flight.
func (fb *Fabric) Rebalance() {
	fb.advance()
	fb.rebalance()
}

// advance integrates flow progress from lastUpdate to now.
func (fb *Fabric) advance() {
	now := fb.eng.Now()
	dt := now.Sub(fb.lastUpdate).Seconds()
	fb.lastUpdate = now
	if dt <= 0 {
		return
	}
	for _, f := range fb.flows {
		moved := f.rate * dt
		if moved > f.remaining {
			moved = f.remaining
		}
		f.remaining -= moved
		for _, l := range f.path {
			l.bytesMoved += moved
		}
	}
	if invariant.On {
		secs := now.Seconds()
		for _, l := range fb.links {
			bound := l.maxCapacity*secs*(1+rateEpsilon) + completionEpsilon
			ckLinkThroughput.Assert(l.bytesMoved <= bound,
				"link %q moved %.0f bytes in %.6fs at max capacity %.0f B/s",
				l.Name, l.bytesMoved, secs, l.maxCapacity)
		}
	}
}

// rebalance recomputes max-min fair rates and schedules the next completion.
func (fb *Fabric) rebalance() {
	// Progressive filling. Reset scratch state.
	for _, l := range fb.links {
		l.alloc = 0
		l.unfrozen = 0
	}
	unfrozen := 0
	for _, f := range fb.flows {
		f.frozen = false
		f.rate = 0
		unfrozen++
		for _, l := range f.path {
			l.unfrozen++
		}
	}
	for unfrozen > 0 {
		// Find the bottleneck share: the smallest per-flow headroom across
		// links that still carry unfrozen flows.
		share := math.Inf(1)
		var bottleneck *Link
		for _, l := range fb.links {
			if l.unfrozen == 0 {
				continue
			}
			head := (l.capacity - l.alloc) / float64(l.unfrozen)
			if head < share {
				share = head
				bottleneck = l
			}
		}
		if bottleneck == nil {
			break // no unfrozen flow touches any link; cannot happen with non-empty paths
		}
		if share < 0 {
			share = 0
		}
		// A capped flow below the bottleneck share freezes at its cap first.
		var minCapFlow *flow
		for _, f := range fb.flows {
			if f.frozen || f.cap <= 0 || f.cap >= share {
				continue
			}
			if minCapFlow == nil || f.cap < minCapFlow.cap {
				minCapFlow = f
			}
		}
		if minCapFlow != nil {
			fb.freeze(minCapFlow, minCapFlow.cap)
			unfrozen--
			continue
		}
		// Otherwise freeze every unfrozen flow crossing the bottleneck link.
		for _, f := range fb.flows {
			if f.frozen {
				continue
			}
			crosses := false
			for _, l := range f.path {
				if l == bottleneck {
					crosses = true
					break
				}
			}
			if crosses {
				fb.freeze(f, share)
				unfrozen--
			}
		}
	}
	if fb.rec != nil {
		now := fb.eng.Now()
		for _, l := range fb.links {
			if l.obsUtil != nil && l.capacity > 0 {
				l.obsUtil.Add(now, l.alloc/l.capacity)
			}
		}
	}
	if invariant.On {
		for _, l := range fb.links {
			ckLinkAlloc.Assert(l.alloc <= l.capacity*(1+rateEpsilon)+rateEpsilon,
				"link %q allocated %.0f B/s over capacity %.0f B/s", l.Name, l.alloc, l.capacity)
		}
		for _, f := range fb.flows {
			ckFlowCap.Assert(f.rate >= 0 &&
				(f.cap <= 0 || f.rate <= f.cap*(1+rateEpsilon)),
				"flow rate %.0f B/s outside [0, cap %.0f B/s]", f.rate, f.cap)
		}
	}
	fb.scheduleNext()
}

func (fb *Fabric) freeze(f *flow, rate float64) {
	f.frozen = true
	f.rate = rate
	for _, l := range f.path {
		l.alloc += rate
		l.unfrozen--
	}
}

func (fb *Fabric) scheduleNext() {
	if fb.hasNext {
		fb.next.Cancel(fb.eng)
		fb.hasNext = false
	}
	soonest := math.Inf(1)
	for _, f := range fb.flows {
		if f.rate <= 0 {
			continue
		}
		t := f.remaining / f.rate
		if t < soonest {
			soonest = t
		}
	}
	if math.IsInf(soonest, 1) {
		return
	}
	// Ceil to the next nanosecond so that by the time the event fires every
	// flow scheduled to finish has remaining <= 0 modulo float error.
	delay := sim.Duration(math.Ceil(soonest * float64(sim.Second)))
	if delay < 1 {
		delay = 1
	}
	fb.next = fb.eng.After(delay, fb.completeFn)
	fb.hasNext = true
}

// completionEpsilon absorbs float rounding in remaining-byte accounting.
const completionEpsilon = 1e-3

func (fb *Fabric) onCompletion() {
	fb.hasNext = false
	fb.advance()
	// Filter finished flows out in place, keeping the survivors' order (the
	// rebalance and completion order depend on it).
	still := fb.flows[:0]
	for _, f := range fb.flows {
		if f.remaining <= completionEpsilon {
			f.remaining = 0
			fb.completed = append(fb.completed, f)
		} else {
			still = append(still, f)
		}
	}
	for i := len(still); i < len(fb.flows); i++ {
		fb.flows[i] = nil
	}
	fb.flows = still
	fb.rebalance()
	now := fb.eng.Now()
	for i, f := range fb.completed {
		fb.completed[i] = nil
		if fb.rec != nil && f.ideal > 0 {
			// Allocation wait: how much longer the transfer took than it
			// would have alone on its narrowest link. Completion rounds up
			// to whole nanoseconds, so clamp tiny negatives to zero.
			wait := now.Sub(f.start) - f.ideal
			if wait < 0 {
				wait = 0
			}
			fb.rec.Observe("pcie/alloc-wait", float64(wait))
		}
		// Recycle before invoking done: the callback may start a transfer
		// that reuses this very flow.
		done := f.done
		*f = flow{}
		fb.free.Put(f)
		if done != nil {
			done(now)
		}
	}
	fb.completed = fb.completed[:0]
}
