// Package serve is the open-loop serving mode: an arrival process offers
// requests at a rate the server did not choose, and the overload control —
// a bounded admission queue, and deadline-based admission control with an
// SLO-aware adaptive load shedder — decides what to accept and what to
// refuse; the dispatcher decides where to run what was accepted. A dead,
// stalled or saturated backend is excluded by the dispatcher's health check,
// and ops already in flight on a backend that dies fail through the swap
// path's per-op retry bound instead of hanging.
//
// The paper's evaluation is closed-loop (fixed task grids run to
// completion); this package is the "heavy traffic from millions of users"
// half: overload is an input, and surviving it gracefully — shedding the
// excess while the admitted traffic keeps its SLO — is the measured,
// gated behavior. See DESIGN.md "Serving & overload control".
//
// Accounting model (the conservation law checked by the serve.conservation
// invariant):
//
//	offered  = refused (at the front door) + admitted
//	admitted = completed + shed (post-admission drops) + in-flight
//
// Refusals never enter the system (queue-full, predicted-deadline, and
// shedder throttling); sheds are admitted requests dropped from the queue
// when their waiting time exceeds the deadline, which is the SLO.
package serve

import (
	"math/rand"
	"slices"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/invariant"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/place"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ckConservation checks offered/admitted/completed/shed/in-flight
// conservation at every control tick and at the end of the run.
var ckConservation = invariant.Register("serve.conservation")

// Config parameterizes one open-loop serving run.
type Config struct {
	// Templates is the pool of request shapes; arrivals cycle through it
	// pseudo-randomly (seeded).
	Templates []cluster.App
	// Arrivals is the open-loop arrival process.
	Arrivals workload.ArrivalProcess
	// Duration is the arrival window: requests arrive in [0, Duration).
	Duration sim.Duration
	// Drain extends the simulation past the arrival window so in-flight
	// work can finish (0: stop at Duration and report in-flight).
	Drain sim.Duration
	// SLO is the placement-delay target (submission → VM-ready) the
	// shedder defends for admitted traffic, as a p99. It must be positive.
	SLO sim.Duration
	// Shedding enables deadline admission at the SLO and the adaptive
	// token-bucket shedder. The deadline refuses arrivals whose predicted
	// queue wait exceeds the SLO and sheds queued requests that have
	// already waited longer: work that cannot meet its deadline is not
	// worth queueing, and shedding it is what keeps the *admitted*
	// traffic's placement delay bounded. Without Shedding, only the queue
	// bound protects the server.
	Shedding bool
	// Policy overrides the dispatcher's placement policy (nil = alg1);
	// see internal/place.
	Policy *place.Policy
	// Seed feeds every stochastic component (arrival draws, template
	// choice).
	Seed int64
}

// queueCap bounds the admission queue: arrivals finding it full are
// refused.
const queueCap = 256

// Result summarizes one serving run.
type Result struct {
	// Offered is the total arrivals in the window.
	Offered int
	// Front-door refusals, by reason. Refused work never entered the
	// system.
	RefusedQueueFull int
	RefusedDeadline  int
	RefusedThrottle  int
	// Admitted = Offered - refusals.
	Admitted int
	// Degraded is the subset of Admitted served in degraded mode (cheaper
	// response) by the shedder's brown-out band.
	Degraded int
	// Shed counts admitted requests dropped from the queue after waiting
	// past the SLO.
	Shed int
	// Completed tasks, and the subset whose placement delay met the SLO.
	Completed      int
	CompletedInSLO int
	// InFlight at the end of the run: queued + dispatched-but-not-ready +
	// running.
	InFlight int

	// Placement-delay distribution over admitted work that reached
	// VM-ready (submission → VM-ready; see cluster.ArrivalSimResult).
	DelayP50, DelayP95, DelayP99 sim.Duration
	DelaySamples                 int
	// SLOViolationFrac is the share of measured placements over the SLO.
	SLOViolationFrac float64

	// GoodputRPS is useful work delivered per second of the arrival
	// window: completions whose placement delay met the SLO, with degraded
	// responses weighted by their cost share (degradeCost) so brown-out
	// cannot inflate goodput by making responses cheaper.
	GoodputRPS float64
	// ShedRate is (refusals + sheds) / offered.
	ShedRate float64

	// MaxQueue is the deepest the admission queue grew.
	MaxQueue int
}

// queued is one admitted request waiting for dispatch.
type queued struct {
	app      cluster.App
	arrived  sim.Time
	degraded bool
	// req is the request's record, which its first dispatch attempt takes
	// from the server's free list (nil until then) and every retry reuses.
	req *request
}

// request is one admitted request from its first dispatch attempt to its
// task's completion: its page features and, once placed, its placement and
// placement delay. Its ready and done callbacks are bound once, when the
// record is built, so recycling the record through the server's free list
// recycles them too.
type request struct {
	s        *server
	app      cluster.App
	arrived  sim.Time
	degraded bool
	f        trace.Features
	pl       cluster.Placement
	delay    sim.Duration
	inSLO    bool

	readyFn func(cluster.Placement)
	doneFn  func(task.Stats)
}

// admission is the bounded FIFO of admitted requests waiting for dispatch:
// a fixed ring of queueCap entries, so admitting and dispatching a request
// neither moves nor allocates queue storage.
type admission struct {
	buf  [queueCap]queued
	head int // index of the oldest entry
	n    int // entries queued
}

func (q *admission) len() int { return q.n }

// front returns the oldest entry; the queue must not be empty.
func (q *admission) front() *queued { return &q.buf[q.head] }

// push appends an entry; the queue must not be full.
func (q *admission) push(e queued) {
	q.buf[(q.head+q.n)%queueCap] = e
	q.n++
}

// pop drops the oldest entry, releasing what it references.
func (q *admission) pop() {
	q.buf[q.head] = queued{}
	q.head = (q.head + 1) % queueCap
	q.n--
}

// server is the run state of one serving simulation.
type server struct {
	cfg   Config
	env   baseline.Env
	eng   *sim.Engine
	d     *cluster.Dispatcher
	rng   *rand.Rand
	start sim.Time // engine time when serving began; arrival processes see elapsed time

	queue admission
	res   Result
	// pool recycles the storage of finished requests' tasks, and free
	// their request records.
	pool task.Pool
	free sim.FreeList[request]
	// prof profiles each admitted request once, on its first dispatch
	// attempt, reusing its stream and trace table across requests.
	prof baseline.Profiler

	// Conservation pieces, tracked independently of the queue so the
	// invariant is a structural check, not arithmetic identity.
	pendingReady int // dispatched, VM not ready yet
	running      int // task started, not completed
	inSLOSamples int // placement delays at or under the SLO
	goodWeight   float64

	delays metrics.Histogram
	// ring holds recent placement delays for the shedder's window p99.
	ring  [128]sim.Duration
	ringN int

	shed shedder

	ewmaServiceNS float64

	// Observability handles, resolved once (nil when off).
	rec        *obs.Recorder
	obsQueue   *metrics.BucketTimeline
	obsRate    *metrics.BucketTimeline
	obsArrival *metrics.BucketTimeline
}

// shedder is the adaptive admission throttle: a token bucket whose refill
// rate follows an AIMD law driven by the windowed placement-delay p99. When
// the window p99 breaches the SLO the rate is cut multiplicatively;
// otherwise it recovers additively toward the offered rate. Below one token
// the bucket has a brown-out band where requests are admitted degraded
// rather than refused. (The queue head's age needs no signal of its own:
// the deadline sheds every request older than the SLO first.)
type shedder struct {
	rate    float64 // tokens/second
	tokens  float64
	burst   float64
	minRate float64
}

const (
	shedBeta     = 0.8  // multiplicative decrease on breach
	shedAlpha    = 0.05 // additive increase, as a share of the offered rate
	degradeCost  = 0.25 // tokens consumed by a degraded admission
	degradeBand  = 0.25 // minimum tokens for a degraded admission
	ewmaAlpha    = 0.2
	minShedRate  = 5.0
	shedHeadroom = 1.25 // rate cap as a multiple of the offered rate

	// maxTasksPerVM is the dispatcher's per-VM concurrency bound; see
	// cluster.Dispatcher.MaxTasksPerVM.
	maxTasksPerVM = 2
	// controlTick is the control-loop cadence: queue-deadline scanning,
	// shedder adaptation, conservation checks.
	controlTick = 50 * sim.Millisecond
)

// Run executes one open-loop serving simulation against env's machine. The
// caller owns fleet preparation (see PrewarmFleet); Run owns everything
// from the first arrival to the final accounting.
func Run(env baseline.Env, cfg Config) Result {
	s := &server{
		cfg: cfg,
		env: env,
		eng: env.Machine.Eng,
		d:   cluster.NewDispatcher(env),
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
	s.d.MaxTasksPerVM = maxTasksPerVM
	s.d.Policy = cfg.Policy

	if obs.On {
		if r := obs.Rec(s.eng); r != nil {
			s.rec = r
			s.obsQueue = r.Timeline("serve/queue-depth", obs.ModeMean)
			s.obsRate = r.Timeline("serve/shed-rate-limit", obs.ModeMean)
			s.obsArrival = r.Timeline("serve/offered-rate", obs.ModeMean)
			r.OnSeal(func() {
				r.Counter("serve/offered").Add(float64(s.res.Offered))
				r.Counter("serve/admitted").Add(float64(s.res.Admitted))
				r.Counter("serve/refused-queue-full").Add(float64(s.res.RefusedQueueFull))
				r.Counter("serve/refused-deadline").Add(float64(s.res.RefusedDeadline))
				r.Counter("serve/refused-throttle").Add(float64(s.res.RefusedThrottle))
				r.Counter("serve/degraded").Add(float64(s.res.Degraded))
				r.Counter("serve/shed").Add(float64(s.res.Shed))
				r.Counter("serve/completed").Add(float64(s.res.Completed))
			})
		}
	}

	if cfg.Shedding {
		offered := cfg.Arrivals.Rate(0)
		s.shed = shedder{
			rate:    offered * shedHeadroom,
			minRate: minShedRate,
		}
		s.shed.burst = s.shed.rate * 0.25
		if s.shed.burst < 8 {
			s.shed.burst = 8
		}
		s.shed.tokens = s.shed.burst
	}

	// The serving clock is relative to the instant Run is entered: the
	// engine may already be deep into virtual time (fleet prewarming boots
	// VMs for ~52 virtual seconds), and arrival processes are defined over
	// elapsed serving time.
	s.start = s.eng.Now()
	end := s.start.Add(cfg.Duration + cfg.Drain)

	// Arrival loop.
	var arrive func(i int)
	arrive = func(i int) {
		now := s.eng.Now()
		if now.Sub(s.start) >= cfg.Duration {
			return
		}
		s.offer(i)
		gap := cfg.Arrivals.Gap(s.elapsed(), s.rng)
		s.eng.At(now.Add(gap), func() { arrive(i + 1) })
	}
	s.eng.Immediately(func() { arrive(0) })

	// Control loop.
	var tick func()
	tick = func() {
		s.tick()
		next := s.eng.Now().Add(controlTick)
		if next <= end {
			s.eng.At(next, tick)
		}
	}
	s.eng.At(s.start.Add(controlTick), tick)

	s.eng.RunUntil(end)

	// Final accounting.
	s.res.InFlight = s.queue.len() + s.pendingReady + s.running
	s.checkConservation()
	s.res.DelaySamples = s.delays.Count()
	if n := s.delays.Count(); n > 0 {
		s.res.DelayP50 = sim.Duration(s.delays.Quantile(0.50))
		s.res.DelayP95 = sim.Duration(s.delays.Quantile(0.95))
		s.res.DelayP99 = sim.Duration(s.delays.Quantile(0.99))
		viol := 0.0
		// Violation fraction from the histogram's view of the SLO boundary
		// would be approximate; the exact count is tracked at record time.
		viol = float64(s.res.DelaySamples-s.inSLOSamples) / float64(n)
		s.res.SLOViolationFrac = viol
	}
	if cfg.Duration > 0 {
		s.res.GoodputRPS = s.goodWeight / cfg.Duration.Seconds()
	}
	if s.res.Offered > 0 {
		s.res.ShedRate = float64(s.res.RefusedQueueFull+s.res.RefusedDeadline+
			s.res.RefusedThrottle+s.res.Shed) / float64(s.res.Offered)
	}
	return s.res
}

// elapsed is serving time: engine time since Run began, as the sim.Time
// the arrival processes are defined over.
func (s *server) elapsed() sim.Time {
	return sim.Time(s.eng.Now().Sub(s.start))
}

// offer handles one arrival: admission control, then queue + pump.
func (s *server) offer(i int) {
	s.res.Offered++
	if s.obsArrival != nil {
		s.obsArrival.Add(s.eng.Now(), s.cfg.Arrivals.Rate(s.elapsed()))
	}

	// 1. Bounded queue.
	if s.queue.len() >= queueCap {
		s.res.RefusedQueueFull++
		return
	}
	// 2. Deadline-based admission: refuse work predicted to wait past the
	// SLO (queue length × smoothed service time / fleet slots).
	if s.cfg.Shedding && s.predictedWait() > s.cfg.SLO {
		s.res.RefusedDeadline++
		return
	}
	// 3. Adaptive shedder.
	degraded := false
	if s.cfg.Shedding {
		switch {
		case s.shed.tokens >= 1:
			s.shed.tokens--
		case s.shed.tokens >= degradeBand:
			s.shed.tokens -= degradeCost
			degraded = true
		default:
			s.res.RefusedThrottle++
			return
		}
	}

	app := s.cfg.Templates[s.rng.Intn(len(s.cfg.Templates))]
	app.Seed = s.cfg.Seed + int64(i)
	if degraded {
		// Brown-out: serve the cheap version of the response — a quarter
		// of the accesses — instead of refusing outright.
		app.Spec.MainAccesses /= 4
		if app.Spec.MainAccesses < 64 {
			app.Spec.MainAccesses = 64
		}
		s.res.Degraded++
	}
	s.res.Admitted++
	s.queue.push(queued{app: app, arrived: s.eng.Now(), degraded: degraded})
	if s.queue.len() > s.res.MaxQueue {
		s.res.MaxQueue = s.queue.len()
	}
	s.pump()
}

// predictedWait estimates how long a new arrival would queue: requests
// ahead of it divided by the fleet's smoothed service throughput.
func (s *server) predictedWait() sim.Duration {
	if s.ewmaServiceNS <= 0 {
		return 0 // no evidence yet: admit
	}
	slots := 0
	for range s.env.Machine.VMs() {
		slots += maxTasksPerVM
	}
	if slots == 0 {
		slots = 1
	}
	return sim.Duration(float64(s.queue.len()+1) * s.ewmaServiceNS / float64(slots))
}

// pump dispatches from the queue head until the fleet refuses. Expired
// work is shed first, at the last possible moment: a request that already
// waited past the deadline is never dispatched, which is what bounds the
// placement delay of everything that *is* dispatched (the tick-time scan
// alone would leave a one-tick race where expired work slips out).
func (s *server) pump() {
	s.expire()
	for s.queue.len() > 0 {
		q := s.queue.front()
		if q.req == nil {
			q.req = s.newRequest(q)
		}
		pl := s.d.Dispatch(q.app, q.req.f, q.req.readyFn)
		if pl.Via == cluster.ViaNone {
			return
		}
		s.queue.pop()
		s.pendingReady++
	}
}

// newRequest takes a record for q from the free list, or builds one with
// its callbacks, and profiles the request into it.
func (s *server) newRequest(q *queued) *request {
	r := s.free.Get()
	if r == nil {
		r = &request{s: s}
		r.readyFn = r.ready
		r.doneFn = r.done
	}
	r.app, r.arrived, r.degraded = q.app, q.arrived, q.degraded
	r.f = s.prof.Profile(q.app.Spec, q.app.Seed)
	return r
}

// ready is the request's VM-ready callback, which Dispatch calls at most
// once: measure the placement delay (submission → VM-ready) and start the
// task, prepared from the request's features.
func (r *request) ready(pl cluster.Placement) {
	s := r.s
	s.pendingReady--
	s.running++

	r.pl = pl
	r.delay = s.eng.Now().Sub(r.arrived)
	r.inSLO = r.delay <= s.cfg.SLO
	s.delays.Add(float64(r.delay))
	if r.inSLO {
		s.inSLOSamples++
	}
	s.ring[s.ringN%len(s.ring)] = r.delay
	s.ringN++
	if s.rec != nil {
		s.rec.Observe("serve/placement-delay", float64(r.delay))
	}

	// Serving fleets overcommit memory: a VM's DRAM is shared by its
	// maxTasksPerVM concurrent requests, so each request's local share
	// is capped by pages/(slots × footprint) regardless of what the
	// console's SLO planning asked for. This cap is what makes backend
	// speed matter for serving capacity — the overflow must live on a
	// backend, and how fast that backend is sets the service time.
	local := pl.LocalRatio
	if r.app.Spec.FootprintPages > 0 {
		memCap := float64(pl.VM.Pages) /
			float64(maxTasksPerVM*r.app.Spec.FootprintPages)
		if memCap < 0.05 {
			memCap = 0.05
		}
		if memCap < local {
			local = memCap
		}
	}
	cfg := baseline.PrepareXDMOn(s.env, pl.VM.Path(), r.app.Spec, r.f, local, r.app.SLO, r.app.Seed).Config
	// Per-op timeout/retry, so ops on a backend that dies under a
	// running task fail through instead of hanging.
	cfg.SwapPath.Retry = true
	s.pool.New(cfg).Start(r.doneFn)
}

// done is the request's task-completion callback. It returns the record to
// the free list before releasing the VM and pumping the queue, which may
// reuse the record for the next request.
func (r *request) done(task.Stats) {
	s := r.s
	s.running--
	s.res.Completed++
	if r.inSLO {
		s.res.CompletedInSLO++
		if r.degraded {
			s.goodWeight += degradeCost
		} else {
			s.goodWeight++
		}
	}
	runtime := float64(s.eng.Now().Sub(r.arrived) - r.delay)
	if s.ewmaServiceNS <= 0 {
		s.ewmaServiceNS = runtime
	} else {
		s.ewmaServiceNS += ewmaAlpha * (runtime - s.ewmaServiceNS)
	}
	pl := r.pl
	s.free.Put(r)
	s.d.Release(pl)
	s.pump()
}

// expire sheds queued requests that have already waited past the
// deadline. The queue is in arrival order, so they are always a prefix.
func (s *server) expire() {
	if !s.cfg.Shedding {
		return
	}
	now := s.eng.Now()
	for s.queue.len() > 0 && now.Sub(s.queue.front().arrived) > s.cfg.SLO {
		s.res.Shed++
		if r := s.queue.front().req; r != nil {
			s.free.Put(r) // shed after a refused dispatch attempt
		}
		s.queue.pop()
	}
}

// tick is the control loop: deadline scanning, shedder adaptation,
// conservation checking, timelines.
func (s *server) tick() {
	now := s.eng.Now()
	s.expire()

	if s.cfg.Shedding {
		offered := s.cfg.Arrivals.Rate(s.elapsed())
		maxRate := offered * shedHeadroom
		if maxRate < s.shed.minRate {
			maxRate = s.shed.minRate
		}
		if s.windowP99() > s.cfg.SLO {
			s.shed.rate *= shedBeta
			if s.shed.rate < s.shed.minRate {
				s.shed.rate = s.shed.minRate
			}
		} else {
			s.shed.rate += shedAlpha * maxRate
		}
		if s.shed.rate > maxRate {
			s.shed.rate = maxRate
		}
		s.shed.tokens += s.shed.rate * controlTick.Seconds()
		if s.shed.tokens > s.shed.burst {
			s.shed.tokens = s.shed.burst
		}
		if s.obsRate != nil {
			s.obsRate.Add(now, s.shed.rate)
		}
	}

	if s.obsQueue != nil {
		s.obsQueue.Add(now, float64(s.queue.len()))
	}

	s.checkConservation()
	s.pump()
}

// checkConservation evaluates the conservation law against independently
// tracked structures: the queue, the pending-ready counter, and the
// running-task counter.
func (s *server) checkConservation() {
	if !invariant.On {
		return
	}
	inFlight := s.queue.len() + s.pendingReady + s.running
	ckConservation.Assert(
		s.res.Admitted == s.res.Completed+s.res.Shed+inFlight,
		"admitted %d != completed %d + shed %d + in-flight %d (queue %d, pending %d, running %d)",
		s.res.Admitted, s.res.Completed, s.res.Shed, inFlight,
		s.queue.len(), s.pendingReady, s.running)
}

// windowP99 computes the p99 of the recent placement-delay ring.
func (s *server) windowP99() sim.Duration {
	n := s.ringN
	if n > len(s.ring) {
		n = len(s.ring)
	}
	if n == 0 {
		return 0
	}
	buf := s.ring // a copy on the stack: the ring's order marks the oldest delay
	slices.Sort(buf[:n])
	idx := (n*99 + 99) / 100
	if idx >= n {
		idx = n - 1
	}
	return buf[idx]
}

// PrewarmFleet boots n VMs round-robin across the machine's backends, each
// with every backend warm (so warm switches are possible),
// and runs the engine until the boots complete. Serving runs call this
// before Run so the arrival window starts against a ready fleet — cold VM
// boots (~52s virtual) would otherwise dominate any realistic window.
func PrewarmFleet(env baseline.Env, n, cores, pages int) {
	names := env.Machine.BackendNames()
	if len(names) == 0 {
		return
	}
	for i := 0; i < n; i++ {
		order := make([]string, 0, len(names))
		for j := range names {
			order = append(order, names[(i+j)%len(names)])
		}
		env.Machine.CreateVM("serve-"+order[0], cores, pages, order)
	}
	env.Machine.Eng.Run()
}
