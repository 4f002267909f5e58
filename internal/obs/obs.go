// Package obs is the simulation's observability layer: virtual-time spans
// and instant events (exportable as Chrome trace-event JSON for Perfetto /
// chrome://tracing), bucketed utilization and queue-depth timelines, and a
// named counter/gauge registry with CSV and JSON export.
//
// Like internal/invariant, the layer is built so that a fully instrumented
// simulation costs nearly nothing when observation is off. Every recording
// call site is guarded by a handle that instrumented components resolve once
// at construction time:
//
//	var rec *obs.Recorder
//	if obs.On {
//		rec = obs.Rec(eng)
//	}
//	...
//	if d.rec != nil { // hot path: a nil check, nothing else
//		d.rec.Span("dev/ssd0", "read", start, "")
//	}
//
// With On false (the default) the handle is nil and the hot path pays one
// predictable branch — the same contract the invariant layer proved keeps
// the event kernel within benchmark noise.
//
// Recorders are keyed by engine: each simulation run owns one engine, runs
// single-threaded, and therefore appends to its recorder without locks. The
// export layer merges all recorders into one deterministic artifact — see
// export.go for how ordering stays byte-identical at any worker count.
package obs

import (
	"fmt"
	"strconv"
	"sync"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// On gates every recording call site. Like invariant.On it is a plain bool:
// flip it at setup time (Enable/Capture), before simulations start, never
// mid-run from another goroutine.
var On bool

// Enable turns recording on. Components constructed afterwards on attached
// engines will record; already-constructed components keep their nil handles.
func Enable() { On = true }

// Disable turns recording off for components constructed afterwards.
func Disable() { On = false }

// timelineWidth is the initial bucket width of every timeline. Buckets
// self-coarsen, so the width only sets the finest resolution for short runs.
const timelineWidth = sim.Millisecond

// MaxEventsPerRecorder caps the span/instant buffer of one recorder so a
// heavy run cannot grow a trace without bound. Events past the cap are
// counted in Dropped and reported in the metrics export.
const MaxEventsPerRecorder = 65536

var (
	regMu     sync.Mutex
	recorders = map[*sim.Engine]*Recorder{}
	order     []*Recorder // insertion order; nondeterministic under -workers
)

// Capture enables recording and attaches a Recorder to every engine created
// from now on (via the sim new-engine hook). The returned restore func
// detaches the hook and disables recording; collected data stays available
// for export until Reset.
func Capture() (restore func()) {
	Enable()
	undo := sim.SetNewEngineHook(func(e *sim.Engine) { Attach(e) })
	return func() {
		undo()
		Disable()
	}
}

// Attach creates (or returns) the Recorder for eng and registers the
// engine's step hook so event dispatch shows up as a rate timeline.
func Attach(eng *sim.Engine) *Recorder {
	regMu.Lock()
	defer regMu.Unlock()
	if r, ok := recorders[eng]; ok {
		return r
	}
	r := &Recorder{
		eng:       eng,
		counters:  map[string]*Counter{},
		gauges:    map[string]*Gauge{},
		timelines: map[string]*timelineEntry{},
		hists:     map[string]*metrics.Histogram{},
		spanHists: map[spanKey]*metrics.Histogram{},
	}
	recorders[eng] = r
	order = append(order, r)
	events := r.Timeline("sim/events", ModeSum)
	eng.SetStepHook(func(at sim.Time) { events.Add(at, 1) })
	return r
}

// Rec returns the Recorder attached to eng, or nil if the engine is not
// observed. Components call it once at construction time, guarded by On,
// and cache the result.
func Rec(eng *sim.Engine) *Recorder {
	regMu.Lock()
	defer regMu.Unlock()
	return recorders[eng]
}

// Reset discards every recorder. Call between independent capture sessions
// (e.g. between experiments when each gets its own trace file).
func Reset() {
	regMu.Lock()
	defer regMu.Unlock()
	recorders = map[*sim.Engine]*Recorder{}
	order = nil
}

// snapshot returns the registered recorders in insertion order. The caller
// must not rely on that order for output — see orderedRecorders.
func snapshot() []*Recorder {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]*Recorder, len(order))
	copy(out, order)
	return out
}

// Kind distinguishes trace event flavours; values match the Chrome
// trace-event "ph" phase letters they export as.
type Kind byte

const (
	// KindSpan is a complete duration slice ("X"): a swap-in, a device op.
	KindSpan Kind = 'X'
	// KindInstant is a point event ("i"): a fault injection, a retry.
	KindInstant Kind = 'i'
)

// Event is one recorded span or instant on a named track.
type Event struct {
	Track  string
	Name   string
	Kind   Kind
	Ts     sim.Time
	Dur    sim.Duration
	Detail string // free-form, shown in the trace viewer's args pane
}

// TimelineMode selects how a timeline bucket exports: the mean of its
// samples (level-style series such as queue depth or utilization) or their
// sum (rate-style series such as events or pages per bucket).
type TimelineMode int

const (
	ModeMean TimelineMode = iota
	ModeSum
)

type timelineEntry struct {
	mode TimelineMode
	tl   *metrics.BucketTimeline
}

// spanKey identifies a (track, name) span family. Using a struct key keeps
// the per-span histogram lookup allocation-free — no string concatenation on
// the recording hot path.
type spanKey struct {
	track, name string
}

// Counter is a cumulative value owned by one recorder. Not atomic:
// recorders belong to single-threaded engines.
type Counter struct {
	Value float64
}

// Inc adds one.
func (c *Counter) Inc() { c.Value++ }

// Add accumulates v.
func (c *Counter) Add(v float64) { c.Value += v }

// Gauge is a point-in-time value, typically set once at Seal.
type Gauge struct {
	Value float64
}

// Set overwrites the gauge.
func (g *Gauge) Set(v float64) { g.Value = v }

// Recorder collects observability data for one engine. All methods except
// those documented otherwise must be called from the engine's goroutine.
type Recorder struct {
	eng       *sim.Engine
	label     string
	events    []Event
	dropped   uint64
	counters  map[string]*Counter
	gauges    map[string]*Gauge
	timelines map[string]*timelineEntry
	hists     map[string]*metrics.Histogram
	spanHists map[spanKey]*metrics.Histogram
	opID      uint64
	sealFns   []func()
	sealed    bool
}

// SetLabel names the run in exports (the trace process name). Unlabelled
// runs export as "run<N>" in canonical order.
func (r *Recorder) SetLabel(label string) { r.label = label }

// Now is the recorder's virtual clock — shorthand for span start stamps.
func (r *Recorder) Now() sim.Time { return r.eng.Now() }

// Span records a completed slice on track from start to the current virtual
// time. Call it when the operation finishes; a start after now panics
// because it means the caller's clock arithmetic is wrong.
func (r *Recorder) Span(track, name string, start sim.Time, detail string) {
	now := r.eng.Now()
	if start > now {
		panic(fmt.Sprintf("obs: span %s/%s starts at %v after now %v", track, name, start, now))
	}
	dur := now.Sub(start)
	// Every span family also feeds a duration histogram, keyed by (track,
	// name) so the hot path never concatenates strings. Histograms live
	// outside the event cap: they are fixed-memory, so even when the trace
	// buffer saturates the latency distribution stays complete.
	h, ok := r.spanHists[spanKey{track, name}]
	if !ok {
		h = &metrics.Histogram{}
		r.spanHists[spanKey{track, name}] = h
	}
	h.Add(float64(dur))
	r.record(Event{Track: track, Name: name, Kind: KindSpan, Ts: start, Dur: dur, Detail: detail})
}

// Instant records a point event on track at the current virtual time.
func (r *Recorder) Instant(track, name, detail string) {
	r.record(Event{Track: track, Name: name, Kind: KindInstant, Ts: r.eng.Now(), Detail: detail})
}

func (r *Recorder) record(ev Event) {
	if len(r.events) >= MaxEventsPerRecorder {
		r.dropped++
		return
	}
	r.events = append(r.events, ev)
}

// Counter returns (creating on first use) the named counter.
func (r *Recorder) Counter(name string) *Counter {
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns (creating on first use) the named gauge.
func (r *Recorder) Gauge(name string) *Gauge {
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// Timeline returns (creating on first use) the named bucketed timeline.
// The mode of an existing timeline is left unchanged.
func (r *Recorder) Timeline(name string, mode TimelineMode) *metrics.BucketTimeline {
	if e, ok := r.timelines[name]; ok {
		return e.tl
	}
	e := &timelineEntry{mode: mode, tl: metrics.NewBucketTimeline(timelineWidth)}
	r.timelines[name] = e
	return e.tl
}

// Hist returns (creating on first use) the named histogram, for explicit
// latency-style observations that are not spans (e.g. PCIe allocation wait).
func (r *Recorder) Hist(name string) *metrics.Histogram {
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := &metrics.Histogram{}
	r.hists[name] = h
	return h
}

// Observe records one sample into the named histogram — shorthand for
// Hist(name).Add(v) at call sites that do not cache the handle.
func (r *Recorder) Observe(name string, v float64) { r.Hist(name).Add(v) }

// NextOpID returns the next value of the recorder's monotonically increasing
// operation-id sequence, starting at 1. Layers thread the id through span
// Detail fields ("op=N") so the analysis tier can correlate a swap operation
// with the device and fabric spans it caused. Zero is reserved for "no id".
func (r *Recorder) NextOpID() uint64 {
	r.opID++
	return r.opID
}

// DetailOp renders the canonical op-correlation Detail string: "op=N", or
// "op=N s=I" when stripe >= 0. Every layer that threads an op id through its
// spans uses this one formatter so the analysis tier parses a single shape.
// Call sites must guard with a nil-recorder check — the string allocates.
func DetailOp(id uint64, stripe int) string {
	if stripe < 0 {
		return "op=" + strconv.FormatUint(id, 10)
	}
	return "op=" + strconv.FormatUint(id, 10) + " s=" + strconv.Itoa(stripe)
}

// exportHists merges the recorder's histogram namespaces for export: explicit
// Observe/Hist histograms plus the per-span-family duration histograms, the
// latter named "<track>/<name>". A name collision between the two merges into
// a fresh copy, leaving the originals untouched.
func (r *Recorder) exportHists() map[string]*metrics.Histogram {
	out := make(map[string]*metrics.Histogram, len(r.hists)+len(r.spanHists))
	for name, h := range r.hists {
		out[name] = h
	}
	for k, h := range r.spanHists {
		name := k.track + "/" + k.name
		if prev, ok := out[name]; ok {
			merged := &metrics.Histogram{}
			merged.Merge(prev)
			merged.Merge(h)
			out[name] = merged
		} else {
			out[name] = h
		}
	}
	return out
}

// OnSeal registers fn to run once when the recorder seals — the place to
// capture end-of-run gauges (utilizations, final stats) that are cheap to
// read once but too hot to track continuously.
func (r *Recorder) OnSeal(fn func()) { r.sealFns = append(r.sealFns, fn) }

// Seal runs the registered seal hooks once. Export seals every recorder
// automatically; sealing twice is a no-op.
func (r *Recorder) Seal() {
	if r.sealed {
		return
	}
	r.sealed = true
	for _, fn := range r.sealFns {
		fn()
	}
}
