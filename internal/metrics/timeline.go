package metrics

import (
	"strings"

	"repro/internal/sim"
)

// Timeline samples a probe function at fixed virtual-time intervals — the
// simulation's equivalent of a monitoring agent scraping a gauge. Use it to
// watch fault rates, resident sizes, or bandwidth evolve over a run.
type Timeline struct {
	eng      *sim.Engine
	interval sim.Duration
	probe    func() float64
	samples  []float64
	stopped  bool
}

// NewTimeline starts sampling probe every interval until Stop is called or
// the engine drains.
func NewTimeline(eng *sim.Engine, interval sim.Duration, probe func() float64) *Timeline {
	if interval <= 0 {
		panic("metrics: timeline interval must be positive")
	}
	t := &Timeline{eng: eng, interval: interval, probe: probe}
	var tick func()
	tick = func() {
		if t.stopped {
			return
		}
		t.samples = append(t.samples, t.probe())
		t.eng.After(t.interval, tick)
	}
	eng.After(interval, tick)
	return t
}

// Stop ends sampling.
func (t *Timeline) Stop() { t.stopped = true }

// Samples returns the collected values.
func (t *Timeline) Samples() []float64 { return t.samples }

// sparkRunes are the eight sparkline levels.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders any series as a sparkline of at most width characters.
func Sparkline(samples []float64, width int) string {
	if len(samples) == 0 || width <= 0 {
		return ""
	}
	// Downsample by bucket mean.
	vals := samples
	if len(vals) > width {
		buckets := make([]float64, width)
		for i := range buckets {
			lo := i * len(vals) / width
			hi := (i + 1) * len(vals) / width
			if hi <= lo {
				hi = lo + 1
			}
			sum := 0.0
			for _, v := range vals[lo:hi] {
				sum += v
			}
			buckets[i] = sum / float64(hi-lo)
		}
		vals = buckets
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for _, v := range vals {
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(sparkRunes)-1))
		}
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sparkRunes) {
			idx = len(sparkRunes) - 1
		}
		b.WriteRune(sparkRunes[idx])
	}
	return b.String()
}

// DefaultMaxBuckets bounds a BucketTimeline's resolution: when a sample
// lands past the last representable bucket, the timeline coarsens (pairs of
// buckets merge, the bucket width doubles) until it fits. 512 buckets keep a
// full timeline around 4 KiB while still resolving run phases.
const DefaultMaxBuckets = 512

// BucketTimeline accumulates (time, value) samples into fixed-width
// virtual-time buckets. Unlike Timeline, which actively schedules probe
// events on an engine, a BucketTimeline is passive: call sites push samples
// whenever something interesting happens (a queue depth at submit, a link
// utilization at rebalance), in any time order — out-of-order adds land in
// the right bucket because indexing is by absolute time, not arrival.
//
// The bucket array grows on demand up to a maximum; beyond that the timeline
// coarsens itself by merging bucket pairs and doubling the width, so a run of
// any virtual length fits in bounded memory with deterministic contents.
type BucketTimeline struct {
	width      sim.Duration
	maxBuckets int
	sum        []float64
	cnt        []uint64
}

// NewBucketTimeline creates a timeline with the given initial bucket width.
func NewBucketTimeline(width sim.Duration) *BucketTimeline {
	if width <= 0 {
		panic("metrics: bucket timeline width must be positive")
	}
	return &BucketTimeline{width: width, maxBuckets: DefaultMaxBuckets}
}

// SetMaxBuckets adjusts the coarsening threshold (minimum 2). Samples already
// recorded keep their buckets until the next coarsening.
func (b *BucketTimeline) SetMaxBuckets(n int) {
	if n < 2 {
		n = 2
	}
	b.maxBuckets = n
}

// Add records value v at virtual time at. Negative times panic: the virtual
// clock starts at zero, so a negative sample is caller time arithmetic gone
// wrong.
func (b *BucketTimeline) Add(at sim.Time, v float64) {
	if at < 0 {
		panic("metrics: bucket timeline sample before time zero")
	}
	i := int(at / sim.Time(b.width))
	for i >= b.maxBuckets {
		b.coarsen()
		i = int(at / sim.Time(b.width))
	}
	for len(b.sum) <= i {
		b.sum = append(b.sum, 0)
		b.cnt = append(b.cnt, 0)
	}
	b.sum[i] += v
	b.cnt[i]++
}

// coarsen merges bucket pairs and doubles the width.
func (b *BucketTimeline) coarsen() {
	n := (len(b.sum) + 1) / 2
	for i := 0; i < n; i++ {
		s, c := b.sum[2*i], b.cnt[2*i]
		if 2*i+1 < len(b.sum) {
			s += b.sum[2*i+1]
			c += b.cnt[2*i+1]
		}
		b.sum[i], b.cnt[i] = s, c
	}
	b.sum = b.sum[:n]
	b.cnt = b.cnt[:n]
	b.width *= 2
}

// Width reports the current bucket width (grows by doubling under coarsening).
func (b *BucketTimeline) Width() sim.Duration { return b.width }

// Len reports how many buckets are populated-or-before: the index of the
// last touched bucket plus one. An empty timeline has length 0.
func (b *BucketTimeline) Len() int { return len(b.sum) }

// Count reports how many samples landed in bucket i.
func (b *BucketTimeline) Count(i int) uint64 {
	if i < 0 || i >= len(b.cnt) {
		return 0
	}
	return b.cnt[i]
}

// Sum reports the sample sum of bucket i (for rate-style timelines where
// each sample is an increment).
func (b *BucketTimeline) Sum(i int) float64 {
	if i < 0 || i >= len(b.sum) {
		return 0
	}
	return b.sum[i]
}

// BucketMean reports the sample mean of bucket i, or 0 for an empty bucket.
func (b *BucketTimeline) BucketMean(i int) float64 {
	if i < 0 || i >= len(b.sum) || b.cnt[i] == 0 {
		return 0
	}
	return b.sum[i] / float64(b.cnt[i])
}

// Mean reports the mean of all samples across all buckets, or 0 when empty —
// for a level-style series (utilization, queue depth) this is the run-average
// level. Aggregate accessors live here so the analysis tier never reimplements
// bucket arithmetic.
func (b *BucketTimeline) Mean() float64 {
	var sum float64
	var cnt uint64
	for i := range b.sum {
		sum += b.sum[i]
		cnt += b.cnt[i]
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}

// Integrate reports the time integral of the bucket-mean level series in
// value-seconds: Σ BucketMean(i) × Width. For a utilization timeline this is
// the busy time; for a queue-depth timeline, the total waiting (depth ×
// seconds). Empty buckets contribute zero.
func (b *BucketTimeline) Integrate() float64 {
	var total float64
	w := b.width.Seconds()
	for i := range b.sum {
		if b.cnt[i] == 0 {
			continue
		}
		total += b.sum[i] / float64(b.cnt[i]) * w
	}
	return total
}

// Peak reports the largest bucket mean, or 0 when empty.
func (b *BucketTimeline) Peak() float64 {
	var peak float64
	for i := range b.sum {
		if b.cnt[i] == 0 {
			continue
		}
		if m := b.sum[i] / float64(b.cnt[i]); m > peak {
			peak = m
		}
	}
	return peak
}

// Delta converts a monotonically increasing counter series into per-sample
// increments (for turning cumulative counts into rates).
func Delta(samples []float64) []float64 {
	if len(samples) == 0 {
		return nil
	}
	out := make([]float64, len(samples))
	prev := 0.0
	for i, v := range samples {
		out[i] = v - prev
		prev = v
	}
	return out
}
