// Package metrics provides the measurement primitives used across the
// simulation: streaming summary statistics, fixed-bucket histograms, and
// rate meters driven by virtual time. These stand in for the perf/VTune/PMU
// instrumentation the paper uses on its physical testbed.
package metrics

import "math"

// Summary accumulates a streaming count, mean and max; the mean is updated
// by Welford's rule. The zero value is ready to use.
type Summary struct {
	n         uint64
	mean, max float64
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 || x > s.max {
		s.max = x
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
}

// Count reports the number of observations.
func (s *Summary) Count() uint64 { return s.n }

// Mean reports the arithmetic mean, or 0 with no observations.
func (s *Summary) Mean() float64 { return s.mean }

// Max reports the largest observation, or 0 with none.
func (s *Summary) Max() float64 { return s.max }

// histSubBuckets is the number of linear sub-buckets per power-of-two value
// range. 32 sub-buckets bound the relative quantile error at 1/32 ≈ 3.1%,
// HdrHistogram's "two significant figures" regime, while keeping a histogram
// spanning nanoseconds-to-hours under ~2000 counters.
const histSubBuckets = 32

// Histogram is a log-bucketed (HDR-style) latency histogram: values are
// counted in power-of-two ranges split into histSubBuckets linear sub-buckets,
// so memory stays fixed regardless of sample count and any quantile is
// extractable with a bounded relative error (≤ 1/histSubBuckets). Histograms
// with identical bucketing (all of them — the layout is a package constant)
// merge exactly by adding counts, which is what lets the export layer combine
// per-run recorders into one distribution. Min, max, sum, and count are
// tracked exactly. The zero value is ready to use.
type Histogram struct {
	counts   []uint64 // lazily grown to the highest touched bucket
	n        uint64
	sum      float64
	min, max float64
}

// histIndex maps a value to its bucket index. Values below 1 (including
// negatives) share bucket 0; beyond that, index = octave*histSubBuckets +
// linear position within the octave, shifted by one for the underflow bucket.
func histIndex(x float64) int {
	if x < 1 || math.IsNaN(x) {
		return 0
	}
	frac, exp := math.Frexp(x) // x = frac * 2^exp, frac in [0.5, 1)
	sub := int((frac*2 - 1) * histSubBuckets)
	if sub >= histSubBuckets {
		sub = histSubBuckets - 1
	}
	return 1 + (exp-1)*histSubBuckets + sub
}

// histBucketValue reports the representative value for a bucket index: the
// midpoint of the bucket's value range (0 for the underflow bucket's lower
// half, since it spans [0,1)).
func histBucketValue(i int) float64 {
	if i <= 0 {
		return 0.5
	}
	i--
	exp := i / histSubBuckets
	sub := i % histSubBuckets
	lo := math.Ldexp(1+float64(sub)/histSubBuckets, exp)
	hi := math.Ldexp(1+float64(sub+1)/histSubBuckets, exp)
	return (lo + hi) / 2
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	i := histIndex(x)
	for len(h.counts) <= i {
		h.counts = append(h.counts, 0)
	}
	h.counts[i]++
	h.n++
	h.sum += x
	if h.n == 1 {
		h.min, h.max = x, x
	} else {
		if x < h.min {
			h.min = x
		}
		if x > h.max {
			h.max = x
		}
	}
}

// Count reports the number of observations.
func (h *Histogram) Count() int { return int(h.n) }

// Sum reports the exact total of all observations.
func (h *Histogram) Sum() float64 { return h.sum }

// Min reports the exact smallest observation, or 0 with none.
func (h *Histogram) Min() float64 { return h.min }

// Max reports the exact largest observation, or 0 with none.
func (h *Histogram) Max() float64 { return h.max }

// Quantile reports the q-quantile (0 <= q <= 1) by nearest-rank over the
// bucket counts. The result is a bucket-representative value, clamped to the
// exact observed [min, max], so it carries at most 1/histSubBuckets relative
// error. It returns 0 with no observations.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			v := histBucketValue(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Mean reports the exact arithmetic mean of all observations.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Merge folds other into h, as if every observation Added to other had been
// Added to h. Exact: both histograms share the package-constant bucketing.
func (h *Histogram) Merge(other *Histogram) {
	if other.n == 0 {
		return
	}
	if h.n == 0 {
		h.min, h.max = other.min, other.max
	} else {
		if other.min < h.min {
			h.min = other.min
		}
		if other.max > h.max {
			h.max = other.max
		}
	}
	for len(h.counts) < len(other.counts) {
		h.counts = append(h.counts, 0)
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.n += other.n
	h.sum += other.sum
}

// Buckets reports the sparse bucket contents as (index, count) pairs in
// ascending index order — the serialization surface for artifact export.
func (h *Histogram) Buckets() (idx []int, counts []uint64) {
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		idx = append(idx, i)
		counts = append(counts, c)
	}
	return idx, counts
}

// AddBucket reconstructs bucket contents from a serialized artifact: it adds
// count observations directly into bucket i, using the bucket representative
// value for sum/min/max bookkeeping. Combine with SetStats when the artifact
// carries exact stats.
func (h *Histogram) AddBucket(i int, count uint64) {
	if i < 0 || count == 0 {
		return
	}
	for len(h.counts) <= i {
		h.counts = append(h.counts, 0)
	}
	h.counts[i] += count
	v := histBucketValue(i)
	if h.n == 0 {
		h.min, h.max = v, v
	} else {
		if v < h.min {
			h.min = v
		}
		if v > h.max {
			h.max = v
		}
	}
	h.n += count
	h.sum += v * float64(count)
}

// SetStats overrides the exact aggregate statistics (after bucket
// reconstruction from an artifact that carries them).
func (h *Histogram) SetStats(count uint64, sum, min, max float64) {
	h.n = count
	h.sum = sum
	h.min, h.max = min, max
}

// Counter is a simple monotonically increasing event count, mirroring
// kernel counters such as pgmajfault.
type Counter struct {
	Value uint64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.Value++ }
