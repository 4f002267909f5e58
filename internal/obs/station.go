package obs

import (
	"repro/internal/metrics"
	"repro/internal/sim"
)

// stationObs adapts a sim.Station's telemetry callbacks onto a recorder's
// timelines and counters.
type stationObs struct {
	depth  *metrics.BucketTimeline // queue length seen by each arrival
	wait   *metrics.BucketTimeline // time spent waiting (sojourn - service)
	waitH  *metrics.Histogram      // full wait distribution (quantiles)
	served *Counter
}

func (o *stationObs) StationSubmit(at sim.Time, queued int) {
	o.depth.Add(at, float64(queued))
}

func (o *stationObs) StationDone(at sim.Time, service, sojourn sim.Duration) {
	o.served.Inc()
	o.wait.Add(at, float64(sojourn-service))
	o.waitH.Add(float64(sojourn - service))
}

// ObserveStation instruments a queueing station under the given track name:
// a <track>/queue timeline of queue depth at arrival, a <track>/wait
// timeline of mean queueing delay (ns) plus a <track>/wait histogram for
// quantiles, a <track>/served counter, and a <track>/utilization gauge
// captured at seal. Callers guard with On and a nil recorder check, like
// every other hook.
func ObserveStation(r *Recorder, st *sim.Station, track string) {
	if r == nil || st == nil {
		return
	}
	o := &stationObs{
		depth:  r.Timeline(track+"/queue", ModeMean),
		wait:   r.Timeline(track+"/wait", ModeMean),
		waitH:  r.Hist(track + "/wait"),
		served: r.Counter(track + "/served"),
	}
	st.SetObserver(o)
	r.OnSeal(func() {
		r.Gauge(track + "/utilization").Set(st.Utilization())
	})
}
