package metrics

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func TestBucketTimelineEdges(t *testing.T) {
	b := NewBucketTimeline(sim.Millisecond)

	// A sample at exactly 0 lands in bucket 0; one at width-1ns still in
	// bucket 0; one at exactly width opens bucket 1.
	b.Add(0, 1)
	b.Add(sim.Time(sim.Millisecond)-1, 3)
	b.Add(sim.Time(sim.Millisecond), 10)

	if got := b.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	if got := b.Count(0); got != 2 {
		t.Errorf("Count(0) = %d, want 2", got)
	}
	if got := b.BucketMean(0); got != 2 {
		t.Errorf("Mean(0) = %g, want 2", got)
	}
	if got := b.Sum(1); got != 10 {
		t.Errorf("Sum(1) = %g, want 10", got)
	}
	// Out-of-range accessors are zero, not panics.
	if b.Count(-1) != 0 || b.Count(99) != 0 || b.Sum(99) != 0 || b.BucketMean(99) != 0 {
		t.Errorf("out-of-range accessors should be 0")
	}
}

func TestBucketTimelineOutOfOrderAdds(t *testing.T) {
	ordered := NewBucketTimeline(sim.Millisecond)
	shuffled := NewBucketTimeline(sim.Millisecond)

	samples := []struct {
		at sim.Time
		v  float64
	}{
		{0, 1}, {sim.Time(3 * sim.Millisecond), 7}, {sim.Time(sim.Millisecond), 2},
		{sim.Time(2 * sim.Millisecond), 5}, {sim.Time(500 * sim.Microsecond), 3},
	}
	for _, s := range samples {
		ordered.Add(s.at, s.v)
	}
	for i := len(samples) - 1; i >= 0; i-- {
		shuffled.Add(samples[i].at, samples[i].v)
	}

	if ordered.Len() != shuffled.Len() {
		t.Fatalf("lengths differ: %d vs %d", ordered.Len(), shuffled.Len())
	}
	for i := 0; i < ordered.Len(); i++ {
		if om, sm := ordered.BucketMean(i), shuffled.BucketMean(i); om != sm {
			t.Errorf("bucket %d: ordered %g, shuffled %g", i, om, sm)
		}
	}
	if ordered.BucketMean(0) != 2 { // (1+3)/2
		t.Errorf("Mean(0) = %g, want 2", ordered.BucketMean(0))
	}
}

func TestBucketTimelineEmptyExport(t *testing.T) {
	b := NewBucketTimeline(sim.Second)
	if b.Len() != 0 {
		t.Errorf("empty Len = %d", b.Len())
	}
	if got := b.Mean(); got != 0 {
		t.Errorf("empty Mean = %v, want 0", got)
	}
}

func TestBucketTimelineCoarsening(t *testing.T) {
	b := NewBucketTimeline(sim.Millisecond)
	b.SetMaxBuckets(4)

	// Fill buckets 0..3, then force a sample into bucket 7 (index >= max):
	// the timeline must coarsen (doubling width) until it fits, preserving
	// every sample's sum and count.
	for i := 0; i < 4; i++ {
		b.Add(sim.Time(i)*sim.Time(sim.Millisecond), float64(i+1))
	}
	b.Add(sim.Time(7*sim.Millisecond), 100)

	if got := b.Width(); got != 2*sim.Millisecond {
		t.Fatalf("Width after coarsening = %v, want 2ms", got)
	}
	// Old buckets merged pairwise: {1,2} and {3,4}; the new sample lands in
	// bucket 7ms/2ms = 3.
	if got := b.Sum(0); got != 3 {
		t.Errorf("Sum(0) = %g, want 3", got)
	}
	if got := b.Sum(1); got != 7 {
		t.Errorf("Sum(1) = %g, want 7", got)
	}
	if got := b.Count(0); got != 2 {
		t.Errorf("Count(0) = %d, want 2", got)
	}
	if got := b.Sum(3); got != 100 {
		t.Errorf("Sum(3) = %g, want 100", got)
	}

	// Total mass is conserved across any number of coarsenings.
	b.Add(sim.Time(1000*sim.Millisecond), 1)
	var total float64
	var count uint64
	for i := 0; i < b.Len(); i++ {
		total += b.Sum(i)
		count += b.Count(i)
	}
	if total != 111 || count != 6 {
		t.Errorf("after deep coarsening: total %g count %d, want 111 and 6", total, count)
	}
	if b.Len() > 4 {
		t.Errorf("Len %d exceeds max buckets 4", b.Len())
	}
}

func TestBucketTimelineAggregates(t *testing.T) {
	b := NewBucketTimeline(sim.Second)

	// Empty timeline: every aggregate is zero.
	if b.Mean() != 0 || b.Integrate() != 0 || b.Peak() != 0 {
		t.Fatalf("empty aggregates: mean %g integrate %g peak %g, want all 0",
			b.Mean(), b.Integrate(), b.Peak())
	}

	// Bucket 0: samples 1,3 (mean 2); bucket 2: sample 8. Bucket 1 is empty
	// and must contribute nothing to the integral or the peak.
	b.Add(0, 1)
	b.Add(sim.Time(500*sim.Millisecond), 3)
	b.Add(sim.Time(2*sim.Second)+1, 8)

	if got := b.Mean(); got != 4 { // (1+3+8)/3
		t.Errorf("Mean = %g, want 4", got)
	}
	if got := b.Integrate(); math.Abs(got-10) > 1e-9 { // 2*1s + 8*1s
		t.Errorf("Integrate = %g, want 10", got)
	}
	if got := b.Peak(); got != 8 {
		t.Errorf("Peak = %g, want 8", got)
	}

	// Coarsening preserves the sample mean exactly and the integral up to
	// bucket-merge resolution: after pairs merge, bucket 0 holds {1,3,8}... so
	// only assert the mean, which is resolution-independent.
	b.SetMaxBuckets(2)
	b.Add(sim.Time(3*sim.Second), 8)
	if got := b.Mean(); got != 5 { // (1+3+8+8)/4
		t.Errorf("Mean after coarsening = %g, want 5", got)
	}
	if got := b.Peak(); got != 8 {
		t.Errorf("Peak after coarsening = %g, want 8", got)
	}
}

func TestBucketTimelinePanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero width", func() { NewBucketTimeline(0) })
	mustPanic("negative sample", func() { NewBucketTimeline(sim.Second).Add(-1, 1) })
}
