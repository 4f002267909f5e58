package swap

import (
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Channel is a swap channel: the bounded set of in-flight swap operations a
// swap frontend allows. Isolation policy is expressed by who shares a
// Channel instance:
//
//   - shared swap (Linux swap, Fastswap): one Channel per host, all tasks
//     contend on it (Fig 17's worst case);
//   - isolated swap (Canvas): one Channel per application;
//   - vm-isolated swap (xDM): one Channel per VM.
type Channel struct {
	name string
	res  *sim.Resource

	// Ops and QueueWait measure per-op contention for Fig 17.
	Ops       uint64
	QueueWait sim.Duration
	eng       *sim.Engine

	// free recycles admission records (see entry).
	free sim.FreeList[entry]

	// Observability handle, resolved once at construction (nil when off).
	obsQueue *metrics.BucketTimeline
}

// NewChannel creates a swap channel admitting depth concurrent operations.
func NewChannel(eng *sim.Engine, name string, depth int) *Channel {
	c := &Channel{name: name, res: sim.NewResource(eng, depth), eng: eng}
	if obs.On {
		if r := obs.Rec(eng); r != nil {
			track := "swapch/" + name
			c.obsQueue = r.Timeline(track+"/queue", obs.ModeMean)
			r.OnSeal(func() {
				r.Counter(track + "/ops").Add(float64(c.Ops))
				r.Gauge(track + "/mean-queue-wait-ns").Set(float64(c.MeanQueueWait()))
			})
		}
	}
	return c
}

// Name reports the channel's name.
func (c *Channel) Name() string { return c.name }

// entry is one pending admission; grantFn is bound once per record, so
// recycling the record recycles it too.
type entry struct {
	c       *Channel
	start   sim.Time
	fn      func()
	grantFn func()
}

// Enter admits one operation, calling fn when a slot frees up. The caller
// must call Leave exactly once when the operation completes.
func (c *Channel) Enter(fn func()) {
	e := c.free.Get()
	if e == nil {
		e = &entry{c: c}
		e.grantFn = e.grant
	}
	e.start, e.fn = c.eng.Now(), fn
	if c.obsQueue != nil {
		c.obsQueue.Add(e.start, float64(c.res.Waiting()))
	}
	c.res.Acquire(e.grantFn)
}

// grant accounts the admission, recycles the record and runs the caller's
// callback.
func (e *entry) grant() {
	c, fn := e.c, e.fn
	c.Ops++
	c.QueueWait += c.eng.Now().Sub(e.start)
	e.fn = nil
	c.free.Put(e)
	fn()
}

// Leave releases the operation's slot.
func (c *Channel) Leave() { c.res.Release() }

// MeanQueueWait reports the average time ops spent waiting for admission.
func (c *Channel) MeanQueueWait() sim.Duration {
	if c.Ops == 0 {
		return 0
	}
	return c.QueueWait / sim.Duration(c.Ops)
}
