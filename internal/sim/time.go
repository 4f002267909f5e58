// Package sim provides the discrete-event simulation kernel on which every
// other subsystem of this repository runs.
//
// The kernel is deliberately small: a virtual clock, an event heap, and a few
// reusable synchronization primitives (Resource, Queue, Timer). All far-memory
// devices, swap paths, VMs, and cluster schedulers are expressed as callbacks
// scheduled on an Engine. Nothing in the package reads the wall clock, so
// simulations are fully deterministic given their inputs.
package sim

import (
	"fmt"
	"math"
)

// Time is a point on the simulation's virtual clock, in nanoseconds since the
// start of the run. It is a distinct type so that virtual time cannot be
// accidentally mixed with wall-clock time.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Common durations, mirroring time.Duration's constants.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// MaxTime is the largest representable point in virtual time.
const MaxTime Time = math.MaxInt64

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds reports the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Seconds reports the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Milliseconds reports the duration as a floating-point number of milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

// Microseconds reports the duration as a floating-point number of microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

// DurationOf converts a floating-point number of seconds into a Duration,
// saturating rather than overflowing for very large values.
func DurationOf(seconds float64) Duration {
	ns := seconds * float64(Second)
	if ns >= math.MaxInt64 {
		return Duration(math.MaxInt64)
	}
	if ns <= math.MinInt64 {
		return Duration(math.MinInt64)
	}
	return Duration(ns)
}

func (d Duration) String() string {
	switch {
	case d < Microsecond:
		return fmt.Sprintf("%dns", int64(d))
	case d < Millisecond:
		return fmt.Sprintf("%.2fµs", d.Microseconds())
	case d < Second:
		return fmt.Sprintf("%.2fms", d.Milliseconds())
	default:
		return fmt.Sprintf("%.3fs", d.Seconds())
	}
}

func (t Time) String() string { return Duration(t).String() }
