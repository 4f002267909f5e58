package main

import (
	"runtime"
	"time"
)

// The host-speed probe. On a shared host, speed drifts by ±15% over tens of
// seconds as other tenants load the shared cores, and a run lasts about as
// long as one such period, so raw host times spread more across runs than
// the changes the benchmark must resolve. Before each rep and after the
// last, while the simulator is idle, the probe times a fixed arithmetic
// loop. End-to-end host times are then reported at a reference speed:
// scaled by refProbe over the run's median probe time. The probe runs no
// repository code, so a change to the simulator cannot move it.
const (
	probeIters = 1 << 25
	// refProbe is the median probe time on the 2-core Xeon of the recorded
	// baseline.
	refProbe = 74 * time.Millisecond
)

var probeSink uint64

// probe holds a run's probe times, in seconds.
type probe struct{ times []float64 }

// measure times the probe once. It completes a collection first, so that
// no collector work overlaps it.
func (p *probe) measure() {
	runtime.GC()
	start := time.Now()
	x := uint64(1)
	for i := 0; i < probeIters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		x ^= x >> 17
	}
	probeSink = x
	p.times = append(p.times, time.Since(start).Seconds())
}

// scale converts this run's host times to the reference speed.
func (p *probe) scale() float64 { return refProbe.Seconds() / spreadOfValues(p.times).Median }
