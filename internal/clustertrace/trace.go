// Package clustertrace generates synthetic cluster memory-utilization
// traces matched to the published statistics of the Alibaba 2017 and 2018
// production traces the paper uses for its scalability study (Fig 19):
// 48.95% mean memory utilization for 2017 (low pressure) and 87.05% for
// 2018 (high pressure). The real traces are multi-GB downloads; the MBE
// metric depends only on the utilization distribution, which the generator
// controls, so the substitution preserves the experiment.
package clustertrace

import (
	"math"
	"math/rand"
)

// Profile describes a trace's utilization distribution as a two-component
// Gaussian mixture: production clusters are rarely unimodal — the 2018
// trace in particular pairs a saturated majority with a cold minority,
// which is exactly the headroom memory balancing exploits.
type Profile struct {
	Name string

	// Frac1 is the weight of the first component; Mean1/Sd1 and Mean2/Sd2
	// parameterize the two components.
	Frac1      float64
	Mean1, Sd1 float64
	Mean2, Sd2 float64
}

// Mean reports the mixture mean.
func (p Profile) Mean() float64 {
	return p.Frac1*p.Mean1 + (1-p.Frac1)*p.Mean2
}

// Alibaba2017 matches the 2017 trace: low pressure (48.95% mean), a warm
// majority plus a cold minority — production clusters keep a pool of
// lightly-loaded machines.
func Alibaba2017() Profile {
	return Profile{
		Name:  "alibaba-2017",
		Frac1: 0.35, Mean1: 0.12, Sd1: 0.06,
		Mean2: 0.688, Sd2: 0.12,
	}
}

// Alibaba2018 matches the 2018 trace: high pressure (87.05% mean), a
// saturated majority plus a cold minority tail.
func Alibaba2018() Profile {
	return Profile{
		Name:  "alibaba-2018",
		Frac1: 0.15, Mean1: 0.17, Sd1: 0.08,
		Mean2: 0.994, Sd2: 0.02,
	}
}

// Snapshot draws per-machine memory utilizations for n machines. Values are
// clamped to [0.02, 0.995]; the empirical mean is re-centered onto the
// profile mean so small n still matches the published statistic.
func Snapshot(p Profile, n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	sum := 0.0
	for i := range out {
		var u float64
		if rng.Float64() < p.Frac1 {
			u = p.Mean1 + p.Sd1*rng.NormFloat64()
		} else {
			u = p.Mean2 + p.Sd2*rng.NormFloat64()
		}
		out[i] = u
		sum += u
	}
	shift := p.Mean() - sum/float64(n)
	for i := range out {
		out[i] = clamp(out[i] + shift)
	}
	return out
}

// Series generates a diurnal utilization time series for one machine:
// sinusoidal day cycle plus noise around the profile mean.
func Series(p Profile, points int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	phase := rng.Float64() * 2 * math.Pi
	amp := 0.1 + 0.1*rng.Float64()
	out := make([]float64, points)
	for i := range out {
		t := float64(i) / float64(points) * 2 * math.Pi
		u := p.Mean() + amp*math.Sin(t+phase) + 0.05*rng.NormFloat64()
		out[i] = clamp(u)
	}
	return out
}

// Every sampled utilization lies in [minUtil, maxUtil]: no machine is idle
// or saturated outright.
const (
	minUtil = 0.02
	maxUtil = 0.995
)

func clamp(x float64) float64 {
	if x < minUtil {
		return minUtil
	}
	if x > maxUtil {
		return maxUtil
	}
	return x
}

// Mean reports the arithmetic mean of a utilization set.
func Mean(us []float64) float64 {
	if len(us) == 0 {
		return 0
	}
	s := 0.0
	for _, u := range us {
		s += u
	}
	return s / float64(len(us))
}
