package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{1, 2, 3, 4, 5} {
		s.Add(x)
	}
	if s.Count() != 5 {
		t.Fatalf("count=%d", s.Count())
	}
	if s.Mean() != 3 {
		t.Fatalf("mean=%v", s.Mean())
	}
	if s.Max() != 5 {
		t.Fatalf("max=%v", s.Max())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Count() != 0 || s.Mean() != 0 || s.Max() != 0 {
		t.Fatal("empty summary should report zeros")
	}
}

// histRelErr is the log-bucketed quantile error bound: one sub-bucket width.
const histRelErr = 1.0 / histSubBuckets

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Add(float64(i))
	}
	cases := []struct {
		q, want float64
	}{
		{0, 1}, {0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100},
	}
	for _, c := range cases {
		got := h.Quantile(c.q)
		if math.Abs(got-c.want) > histRelErr*c.want {
			t.Errorf("Quantile(%v)=%v, want %v ± %.1f%%", c.q, got, c.want, histRelErr*100)
		}
	}
	// Extremes are exact: min/max are tracked outside the buckets.
	if h.Quantile(0) != 1 || h.Quantile(1) != 100 {
		t.Errorf("extreme quantiles (%v, %v) not exact", h.Quantile(0), h.Quantile(1))
	}
	if h.Mean() != 50.5 {
		t.Errorf("mean=%v", h.Mean())
	}
	if h.Min() != 1 || h.Max() != 100 || h.Sum() != 5050 {
		t.Errorf("stats min=%v max=%v sum=%v", h.Min(), h.Max(), h.Sum())
	}
}

func TestHistogramAddAfterQuantile(t *testing.T) {
	var h Histogram
	h.Add(5)
	_ = h.Quantile(0.5)
	h.Add(1) // a later add must be reflected by subsequent quantiles
	if got := h.Quantile(0); got != 1 {
		t.Fatalf("Quantile(0)=%v after re-add, want 1", got)
	}
}

func TestHistogramFixedMemory(t *testing.T) {
	var h Histogram
	// A million samples spanning twelve decades must not grow the histogram
	// past the fixed bucket budget (≈ 64 octaves × histSubBuckets).
	for i := 0; i < 1_000_000; i++ {
		h.Add(math.Pow(10, float64(i%12)))
	}
	idx, counts := h.Buckets()
	if len(idx) != len(counts) || len(idx) == 0 {
		t.Fatalf("sparse buckets malformed: %d idx, %d counts", len(idx), len(counts))
	}
	if n := len(idx); n > 64*histSubBuckets {
		t.Errorf("populated buckets %d exceed fixed budget", n)
	}
	if h.Count() != 1_000_000 {
		t.Errorf("count=%d", h.Count())
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b, all Histogram
	for i := 1; i <= 500; i++ {
		a.Add(float64(i))
		all.Add(float64(i))
	}
	for i := 501; i <= 1000; i++ {
		b.Add(float64(i * 7))
		all.Add(float64(i * 7))
	}
	a.Merge(&b)
	if a.Count() != all.Count() || a.Sum() != all.Sum() ||
		a.Min() != all.Min() || a.Max() != all.Max() {
		t.Fatalf("merged stats diverge: %+v vs %+v", a, all)
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		if a.Quantile(q) != all.Quantile(q) {
			t.Errorf("Quantile(%v): merged %v, direct %v", q, a.Quantile(q), all.Quantile(q))
		}
	}
	// Merging into/from empty histograms is lossless.
	var empty Histogram
	empty.Merge(&a)
	if empty.Count() != a.Count() || empty.Min() != a.Min() {
		t.Error("merge into empty lost data")
	}
	before := a.Count()
	a.Merge(&Histogram{})
	if a.Count() != before {
		t.Error("merge of empty changed state")
	}
}

func TestHistogramBucketRoundTrip(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Add(float64(i) * 1.3)
	}
	idx, counts := h.Buckets()
	var back Histogram
	for i := range idx {
		back.AddBucket(idx[i], counts[i])
	}
	back.SetStats(uint64(h.Count()), h.Sum(), h.Min(), h.Max())
	if back.Count() != h.Count() || back.Min() != h.Min() || back.Max() != h.Max() {
		t.Fatalf("round-trip stats diverge")
	}
	for _, q := range []float64{0.1, 0.5, 0.95, 0.99} {
		if back.Quantile(q) != h.Quantile(q) {
			t.Errorf("Quantile(%v): reconstructed %v, original %v", q, back.Quantile(q), h.Quantile(q))
		}
	}
	// AddBucket with degenerate arguments is a no-op.
	n := back.Count()
	back.AddBucket(-1, 5)
	back.AddBucket(3, 0)
	if back.Count() != n {
		t.Error("degenerate AddBucket changed state")
	}
}

// Property: any quantile of a log-bucketed histogram is within the relative
// error bound of the exact nearest-rank quantile.
func TestHistogramQuantileErrorBoundProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		var h Histogram
		xs := make([]float64, 0, 400)
		for i := 0; i < 400; i++ {
			x := math.Exp(rng.Float64()*20) * 1e-3 // spans ~9 decades
			h.Add(x)
			xs = append(xs, x)
		}
		sort.Float64s(xs)
		for _, q := range []float64{0.01, 0.1, 0.5, 0.9, 0.99} {
			idx := int(math.Ceil(q*float64(len(xs)))) - 1
			if idx < 0 {
				idx = 0
			}
			exact := xs[idx]
			got := h.Quantile(q)
			if exact >= 1 && math.Abs(got-exact) > histRelErr*exact+1e-12 {
				t.Fatalf("trial %d q=%v: got %v, exact %v (rel err %.3f)",
					trial, q, got, exact, math.Abs(got-exact)/exact)
			}
		}
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Count() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

// Property: quantile is monotone in q and bounded by min/max.
func TestHistogramQuantileMonotoneProperty(t *testing.T) {
	f := func(xs []float64, qa, qb float64) bool {
		var h Histogram
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			h.Add(x)
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		if h.Count() == 0 {
			return true
		}
		clamp := func(q float64) float64 { return math.Abs(math.Mod(q, 1)) }
		qa, qb = clamp(qa), clamp(qb)
		if qa > qb {
			qa, qb = qb, qa
		}
		va, vb := h.Quantile(qa), h.Quantile(qb)
		return va <= vb && va >= lo && vb <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(8))}); err != nil {
		t.Fatal(err)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Inc()
	if c.Value != 2 {
		t.Fatalf("value=%d", c.Value)
	}
}

func TestTimelineSampling(t *testing.T) {
	eng := sim.NewEngine()
	v := 0.0
	tl := NewTimeline(eng, sim.Duration(10*sim.Microsecond), func() float64 { v++; return v })
	eng.RunUntil(sim.Time(100 * sim.Microsecond))
	tl.Stop()
	eng.Run()
	if n := len(tl.Samples()); n != 10 {
		t.Fatalf("samples=%d, want 10", n)
	}
	if tl.interval != sim.Duration(10*sim.Microsecond) {
		t.Fatal("interval wrong")
	}
	// Stop halts sampling even if the engine keeps running.
	eng2 := sim.NewEngine()
	tl2 := NewTimeline(eng2, 5, func() float64 { return 1 })
	eng2.RunUntil(20)
	tl2.Stop()
	eng2.At(100, func() {})
	eng2.Run()
	if len(tl2.Samples()) != 4 {
		t.Fatalf("post-stop samples: %d", len(tl2.Samples()))
	}
}

func TestSparkline(t *testing.T) {
	if Sparkline(nil, 10) != "" || Sparkline([]float64{1}, 0) != "" {
		t.Fatal("degenerate sparklines should be empty")
	}
	s := Sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7}, 8)
	if s != "▁▂▃▄▅▆▇█" {
		t.Fatalf("ramp sparkline = %q", s)
	}
	// Flat series renders the lowest level.
	if Sparkline([]float64{5, 5, 5}, 3) != "▁▁▁" {
		t.Fatal("flat sparkline wrong")
	}
	// Downsampling: 100 values into 10 chars.
	var many []float64
	for i := 0; i < 100; i++ {
		many = append(many, float64(i))
	}
	if got := Sparkline(many, 10); len([]rune(got)) != 10 {
		t.Fatalf("downsampled width %d", len([]rune(got)))
	}
}

func TestDelta(t *testing.T) {
	got := Delta([]float64{1, 3, 6, 10})
	want := []float64{1, 2, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delta=%v", got)
		}
	}
	if Delta(nil) != nil {
		t.Fatal("nil delta")
	}
}
