package sim

// Station models a multi-server queueing station: up to Servers requests are
// in service simultaneously and the rest wait FIFO. It is the building block
// for device channels (an SSD with 4 I/O channels is a Station with 4
// servers) and for CPU run queues.
type Station struct {
	res *Resource
	eng *Engine

	// free recycles submit requests (and the two closures each one owns),
	// so a steady-state submit-serve-complete cycle does not allocate.
	free FreeList[submitReq]

	// obs, when set, receives submit/completion telemetry. The disabled
	// cost is one nil check per submit and per completion.
	obs StationObserver

	// Served counts completed requests; BusyTime accumulates server-seconds
	// of service, from which utilization can be derived.
	Served   uint64
	BusyTime Duration
}

// StationObserver receives queueing telemetry from a Station. Implementations
// must not re-enter the station synchronously.
type StationObserver interface {
	// StationSubmit fires when a request arrives, with the number of
	// requests already waiting (not in service) ahead of it.
	StationSubmit(at Time, queued int)
	// StationDone fires when a request completes, with its service time and
	// total sojourn (wait + service).
	StationDone(at Time, service, sojourn Duration)
}

// SetObserver installs an observer (nil removes it). In-flight requests
// report completions to the observer installed at completion time.
func (s *Station) SetObserver(o StationObserver) { s.obs = o }

// submitReq is one in-flight request. acquire and finish are built once per
// request object and bound to it, so recycling the request recycles the
// closures too.
type submitReq struct {
	s       *Station
	service Duration
	arrival Time
	done    func(sojourn Duration)
	acquire func()
	finish  func()
}

// NewStation creates a station with the given number of parallel servers.
func NewStation(eng *Engine, servers int) *Station {
	return &Station{res: NewResource(eng, servers), eng: eng}
}

// newReq pops a recycled request or builds a fresh one with its closures.
func (s *Station) newReq() *submitReq {
	if r := s.free.Get(); r != nil {
		return r
	}
	r := &submitReq{s: s}
	r.acquire = func() { r.s.eng.After(r.service, r.finish) }
	r.finish = func() {
		st := r.s
		st.res.Release()
		st.Served++
		st.BusyTime += r.service
		done := r.done
		sojourn := st.eng.Now().Sub(r.arrival)
		if st.obs != nil {
			st.obs.StationDone(st.eng.Now(), r.service, sojourn)
		}
		// Recycle before invoking done: the callback may Submit again and
		// reuse this very request.
		r.done = nil
		st.free.Put(r)
		if done != nil {
			done(sojourn)
		}
	}
	return r
}

// Submit enqueues a request needing the given service time. done, if non-nil,
// fires at completion with the time the request spent waiting plus in service
// (its sojourn time).
func (s *Station) Submit(service Duration, done func(sojourn Duration)) {
	if service < 0 {
		panic("sim: negative service time")
	}
	r := s.newReq()
	r.service, r.arrival, r.done = service, s.eng.Now(), done
	if s.obs != nil {
		s.obs.StationSubmit(r.arrival, s.res.Waiting())
	}
	s.res.Acquire(r.acquire)
}

// Utilization reports mean server utilization over the interval [0, now].
func (s *Station) Utilization() float64 {
	now := s.eng.Now()
	if now == 0 || s.res.Capacity() == 0 {
		return 0
	}
	return float64(s.BusyTime) / (float64(now) * float64(s.res.Capacity()))
}
