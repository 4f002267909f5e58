package swap

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Swap-path cost constants, calibrated to kernel-level measurements the
// paper's environment implies.
const (
	// FrontendOverhead is the guest kernel's page-fault + swap-entry cost
	// per operation (do_swap_page, frontswap hook).
	FrontendOverhead = 1500 * sim.Nanosecond

	// HostHopOverhead is the fixed extra cost of the hierarchical path: a
	// second fault in the host, host swap-cache management, and scheduling
	// the host's swap worker.
	HostHopOverhead = 3500 * sim.Nanosecond

	// HostCopyPerPage is the guest-to-host buffer copy cost per 4 KiB page
	// on the hierarchical path.
	HostCopyPerPage = 350 * sim.Nanosecond

	// DefaultHostWorkers is the host-side swap worker parallelism
	// (kswapd-like threads) shared by all VMs on the hierarchical path.
	DefaultHostWorkers = 4

	// retryBackoff is the base of the exponential backoff between retry
	// attempts (attempt k waits retryBackoff << (k-1)). 5 ms sits well
	// above any healthy op latency, so retries never amplify transient
	// queueing into congestion collapse, yet three attempts still resolve
	// within tens of milliseconds.
	retryBackoff = 5 * sim.Millisecond

	// maxRetries is how many times a timed-out or errored op is retried
	// before it fails through.
	maxRetries = 2
)

// retryTimeout is the per-attempt deadline on a backend of kind k: about
// 100x a healthy op's worst-case latency for the medium, so false positives
// need sustained congestion, while a stalled device is detected within tens
// of milliseconds.
func retryTimeout(k device.Kind) sim.Duration {
	switch k {
	case device.SSD, device.HDD:
		return 50 * sim.Millisecond
	case device.RDMA, device.DPU:
		return 10 * sim.Millisecond
	default: // DRAM-class media
		return 5 * sim.Millisecond
	}
}

// HealthSink observes per-op outcomes for failure detection.
// faults.Monitor implements it.
type HealthSink interface {
	Record(succeeded bool)
}

// HostSwapStage is the host operating system's swap layer, shared by every
// VM on the machine when the hierarchical path is used.
type HostSwapStage struct {
	station *sim.Station
}

// NewHostSwapStage creates the host stage with the given worker parallelism.
func NewHostSwapStage(eng *sim.Engine, workers int) *HostSwapStage {
	h := &HostSwapStage{station: sim.NewStation(eng, workers)}
	if obs.On {
		obs.ObserveStation(obs.Rec(eng), h.station, "swap/host-stage")
	}
	return h
}

// Path is a fully composed far-memory access path: frontend overhead, an
// admission channel, optionally the hierarchical host hop, and the backend.
type Path struct {
	eng     *sim.Engine
	backend Backend
	channel *Channel

	// hierarchical routes every op through the shared host swap stage,
	// paying HostHopOverhead plus a per-page copy. Nil hostStage with
	// hierarchical=true panics at Submit.
	hostStage    *HostSwapStage
	hierarchical bool

	// Retry turns on per-op timeouts and bounded retry: each attempt's
	// deadline is retryTimeout of the backend's kind, and a timed-out or
	// errored op is retried up to maxRetries times with exponential backoff.
	// Off, ops wait forever: the pre-fault behaviour. A deadline is armed
	// on the engine's DelayLine for that timeout, found when the path is
	// built, and is cancelled when the attempt completes first, which
	// healthy attempts nearly always do.
	Retry bool
	// timeouts is the engine's DelayLine for retryTimeout(backend.Kind()).
	timeouts sim.DelayLine

	// Health, when non-nil, observes every attempt outcome (success,
	// timeout, backend error) for failure detection.
	Health HealthSink

	// Stats.
	SwapIns   metrics.Counter
	SwapOuts  metrics.Counter
	PagesIn   uint64
	PagesOut  uint64
	InLatency metrics.Summary // per swap-in op latency, µs
	Timeouts  metrics.Counter // attempts abandoned at the retry timeout
	Errors    metrics.Counter // attempts completed with a backend error
	Retries   metrics.Counter // re-submissions after timeout/error
	FailedOps metrics.Counter // ops that exhausted all retries

	// free and freeAttempts recycle op and attempt records (see pathOp).
	free         sim.FreeList[pathOp]
	freeAttempts sim.FreeList[attempt]

	// Observability handle, resolved once at construction (nil when off).
	rec   *obs.Recorder
	track string
}

// observe resolves the path's observability handle and registers its seal
// counters. The track embeds both the channel and the backend so that paths
// sharing a channel stay distinguishable.
func (p *Path) observe() {
	if !obs.On {
		return
	}
	r := obs.Rec(p.eng)
	if r == nil {
		return
	}
	p.rec = r
	p.track = "swap/" + p.channel.Name() + "/" + p.backend.Name()
	r.OnSeal(func() {
		r.Counter(p.track + "/swapins").Add(float64(p.SwapIns.Value))
		r.Counter(p.track + "/swapouts").Add(float64(p.SwapOuts.Value))
		r.Counter(p.track + "/pages-in").Add(float64(p.PagesIn))
		r.Counter(p.track + "/pages-out").Add(float64(p.PagesOut))
		r.Counter(p.track + "/timeouts").Add(float64(p.Timeouts.Value))
		r.Counter(p.track + "/errors").Add(float64(p.Errors.Value))
		r.Counter(p.track + "/retries").Add(float64(p.Retries.Value))
		r.Counter(p.track + "/failed-ops").Add(float64(p.FailedOps.Value))
	})
}

// NewPath builds a host-bypass path (xDM's shape): frontend → channel →
// backend.
func NewPath(eng *sim.Engine, backend Backend, channel *Channel) *Path {
	p := &Path{eng: eng, backend: backend, channel: channel,
		timeouts: eng.Delay(retryTimeout(backend.Kind()))}
	p.observe()
	return p
}

// NewHierarchicalPath builds the traditional VM path: frontend → channel →
// host swap stage → backend.
func NewHierarchicalPath(eng *sim.Engine, backend Backend, channel *Channel, host *HostSwapStage) *Path {
	if host == nil {
		panic("swap: hierarchical path requires a host stage")
	}
	p := &Path{eng: eng, backend: backend, channel: channel, hierarchical: true, hostStage: host,
		timeouts: eng.Delay(retryTimeout(backend.Kind()))}
	p.observe()
	return p
}

// Backend reports the path's backend.
func (p *Path) Backend() Backend { return p.backend }

// Channel reports the path's admission channel.
func (p *Path) Channel() *Channel { return p.channel }

// SwapIn fetches an extent from far memory; done fires with the operation's
// end-to-end latency (admission wait included).
func (p *Path) SwapIn(ex Extent, done func(lat sim.Duration)) {
	ex.Write = false
	p.submit(ex, done)
}

// SwapOut writes an extent to far memory; done fires with its latency.
// Callers model asynchronous writeback by simply not blocking on done.
func (p *Path) SwapOut(ex Extent, done func(lat sim.Duration)) {
	ex.Write = true
	p.submit(ex, done)
}

// pathOp is one swap operation in flight on the path. Its stage callbacks
// are bound once, when the record is built, so recycling the record
// recycles them too. Exactly one stage of an op is pending at any time, and
// the record goes back to the free list in finish, before done is called.
type pathOp struct {
	p         *Path
	ex        Extent
	start     sim.Time
	admitted  sim.Time
	hostStart sim.Time
	done      func(lat sim.Duration)
	// attempt counts the retries spent so far under p.Retry.
	attempt int

	enterFn    func()
	frontendFn func()
	hostFn     func(sim.Duration)
	backendFn  func(sim.Duration)
	tryFn      func()
}

func (p *Path) newOp() *pathOp {
	if r := p.free.Get(); r != nil {
		return r
	}
	r := &pathOp{p: p}
	r.enterFn = r.enter
	r.frontendFn = r.frontend
	r.hostFn = r.hostDone
	r.backendFn = r.backendDone
	r.tryFn = r.try
	return r
}

func (p *Path) submit(ex Extent, done func(lat sim.Duration)) {
	r := p.newOp()
	r.ex, r.start, r.done, r.attempt = ex, p.eng.Now(), done, 0
	if p.rec != nil {
		// Correlation id for this swap op: threaded through the backend into
		// device spans ("op=N" Detail) so the analysis tier can reassemble
		// the exact stage breakdown of each operation.
		r.ex.OpID = p.rec.NextOpID()
	}
	// Write-back is asynchronous in the kernel (kswapd / dedicated eviction
	// workers): it does not occupy a fault-path admission slot. Reads (page
	// faults) are admitted through the channel; both directions still
	// contend at the device and, on hierarchical paths, at the host stage.
	if ex.Write {
		r.admitted = r.start
		p.eng.After(FrontendOverhead, r.frontendFn)
		return
	}
	p.channel.Enter(r.enterFn)
}

// enter runs when a read is admitted through the channel.
func (r *pathOp) enter() {
	p := r.p
	r.admitted = p.eng.Now()
	if p.rec != nil {
		p.rec.Span(p.track, "stage/queue", r.start, obs.DetailOp(r.ex.OpID, -1))
	}
	p.eng.After(FrontendOverhead, r.frontendFn)
}

// frontend runs once the frontend overhead is paid and routes the extent to
// the backend, via the host stage when hierarchical.
func (r *pathOp) frontend() {
	p := r.p
	if p.rec != nil {
		p.rec.Span(p.track, "stage/frontend", r.admitted, obs.DetailOp(r.ex.OpID, -1))
	}
	if !p.hierarchical {
		p.send(r)
		return
	}
	// Hierarchical: host hop (shared stage) + per-page copy, then the host
	// performs the device operation.
	hostWork := HostHopOverhead + sim.Duration(r.ex.Pages)*HostCopyPerPage
	r.hostStart = p.eng.Now()
	p.hostStage.station.Submit(hostWork, r.hostFn)
}

// hostDone runs when the host swap stage has copied the extent.
func (r *pathOp) hostDone(sim.Duration) {
	p := r.p
	// The host-copy stage span covers the full host sojourn: queueing
	// for a host swap worker plus the hop and per-page copy work.
	if p.rec != nil {
		p.rec.Span(p.track, "stage/host-copy", r.hostStart, obs.DetailOp(r.ex.OpID, -1))
	}
	p.send(r)
}

func (r *pathOp) backendDone(sim.Duration) { r.finish() }

// finish completes the op: it leaves the channel (reads), accounts the op,
// recycles the record and then calls done, which may submit again and reuse
// this very record.
func (r *pathOp) finish() {
	p, ex := r.p, r.ex
	if !ex.Write {
		p.channel.Leave()
	}
	lat := p.eng.Now().Sub(r.start)
	if ex.Write {
		p.SwapOuts.Inc()
		p.PagesOut += uint64(ex.Pages)
	} else {
		p.SwapIns.Inc()
		p.PagesIn += uint64(ex.Pages)
		p.InLatency.Add(lat.Microseconds())
	}
	if p.rec != nil {
		name := "swapin"
		if ex.Write {
			name = "swapout"
		}
		p.rec.Span(p.track, name, r.start, obs.DetailOp(ex.OpID, -1))
	}
	done := r.done
	r.done = nil
	p.free.Put(r)
	if done != nil {
		done(lat)
	}
}

// send submits the extent to the backend under the path's retry policy.
// With Retry off (and no health sink) it is a direct submit that waits
// forever — exactly the pre-fault behaviour. With it on, each attempt races
// the backend against the retry timeout; timeouts and backend errors are
// retried with exponential backoff, and an op that exhausts its retries
// fails through: done still fires (the task must not hang), the loss is
// charged upstream via re-fetch accounting and counted in FailedOps.
func (p *Path) send(r *pathOp) {
	if !p.Retry && p.Health == nil {
		p.backend.Submit(r.ex, r.backendFn)
		return
	}
	r.try()
}

// attempt is one backend try of an op under the retry policy: the backend's
// completion races the timeout timer, and settled records that one of them
// won. Its callbacks are bound once per record. An attempt goes back to the
// free list only once neither callback can fire again; one abandoned by its
// timer may still see a late completion, so it is left to the GC.
type attempt struct {
	p        *Path
	op       *pathOp
	settled  bool
	timed    bool // a timer is (or is about to be) armed
	timer    sim.Handle
	hasTimer bool

	resultFn  func(sim.Duration, error)
	okFn      func(sim.Duration)
	timeoutFn func()
}

func (p *Path) newAttempt() *attempt {
	if a := p.freeAttempts.Get(); a != nil {
		return a
	}
	a := &attempt{p: p}
	a.resultFn = func(_ sim.Duration, err error) { a.outcome(err) }
	a.okFn = func(sim.Duration) { a.outcome(nil) }
	a.timeoutFn = a.timeout
	return a
}

func (p *Path) recycleAttempt(a *attempt) {
	a.op = nil
	p.freeAttempts.Put(a)
}

// try performs one backend attempt, surfacing errors when the backend can
// report them, and arms the attempt's timeout.
func (r *pathOp) try() {
	p := r.p
	a := p.newAttempt()
	a.op, a.settled, a.timed, a.hasTimer = r, false, p.Retry, false
	// The backend may complete synchronously and finish r, whose done may
	// reuse r for a new op: only a is touched from here on.
	if rb, ok := p.backend.(ResultBackend); ok {
		rb.SubmitResult(r.ex, a.resultFn)
	} else {
		p.backend.Submit(r.ex, a.okFn)
	}
	if a.timed {
		a.timer = p.timeouts.Schedule(a.timeoutFn)
		a.hasTimer = true
	}
}

// outcome settles the attempt with the backend's result.
func (a *attempt) outcome(err error) {
	if a.settled {
		return // late completion of an attempt the timer abandoned
	}
	a.settled = true
	p, r := a.p, a.op
	if a.hasTimer {
		a.timer.Cancel(p.eng)
	}
	// A synchronous completion leaves the timer still to be armed; the
	// timer then recycles the attempt when it fires.
	if a.hasTimer || !a.timed {
		p.recycleAttempt(a)
	}
	if err == nil {
		if p.Health != nil {
			p.Health.Record(true)
		}
		r.finish()
		return
	}
	p.Errors.Inc()
	if p.rec != nil {
		p.rec.Instant(p.track, "error", err.Error())
	}
	if p.Health != nil {
		p.Health.Record(false)
	}
	r.failOrRetry()
}

// timeout fires the retry timeout after the attempt was submitted.
func (a *attempt) timeout() {
	p, r := a.p, a.op
	if a.settled {
		// The backend completed synchronously, before the timer was armed:
		// both callbacks have now fired.
		p.recycleAttempt(a)
		return
	}
	a.settled = true
	p.Timeouts.Inc()
	if p.rec != nil {
		p.rec.Instant(p.track, "timeout", "")
	}
	if p.Health != nil {
		p.Health.Record(false)
	}
	r.failOrRetry()
}

func (r *pathOp) failOrRetry() {
	p := r.p
	if p.Retry && r.attempt < maxRetries {
		r.attempt++
		p.Retries.Inc()
		backoff := retryBackoff << (r.attempt - 1)
		if p.rec != nil {
			p.rec.Instant(p.track, "retry", fmt.Sprintf("attempt=%d backoff=%v", r.attempt, backoff))
		}
		p.eng.After(backoff, r.tryFn)
		return
	}
	p.FailedOps.Inc()
	if p.rec != nil {
		p.rec.Instant(p.track, "failed", "retries exhausted")
	}
	r.finish()
}
