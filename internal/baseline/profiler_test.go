package baseline_test

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/workload"
)

// servingSpecs returns the serving request templates at scale 8, scaled the
// way the serving experiments scale them: a 128-page footprint.
func servingSpecs() []workload.Spec {
	const scale = 8
	var specs []workload.Spec
	for _, app := range serve.RequestTemplates() {
		s := app.Spec
		s.FootprintPages /= scale
		s.MainAccesses /= scale
		s.SegmentLen = min(s.SegmentLen, s.FootprintPages)
		specs = append(specs, s)
	}
	return specs
}

// referenceProfile is the profile built from a fresh stream and a fresh
// table, independent of baseline.Profiler.
func referenceProfile(spec workload.Spec, seed int64) trace.Features {
	tbl := trace.NewTable(spec.FootprintPages)
	s := workload.NewStream(spec, seed+baseline.ProfileSeedOffset)
	for skip := s.MappedPages(); skip > 0; skip-- {
		s.Next()
	}
	for {
		a, ok := s.Next()
		if !ok {
			break
		}
		tbl.Record(a.Page, a.Write)
	}
	return tbl.Features(int(spec.AnonFraction * float64(spec.FootprintPages)))
}

// One Profiler reused across requests of both serving shapes, a degraded
// request, several seeds and a footprint that shrinks and then grows past
// every earlier one returns exactly what a fresh profile returns.
func TestProfilerMatchesProfile(t *testing.T) {
	specs := servingSpecs()
	lookup, scan := specs[0], specs[1]
	degraded := scan
	degraded.MainAccesses /= 4
	full := serve.RequestTemplates()[1].Spec // unscaled: 1024 pages
	wide := full
	wide.FootprintPages *= 2
	cases := []struct {
		spec workload.Spec
		seed int64
	}{
		{full, 1},
		{lookup, 1}, // shrinks to 128 pages
		{scan, 2},
		{degraded, 3},
		{lookup, 42},
		{scan, 1},
		{full, 7}, // grows back
		{wide, 9}, // grows past every earlier footprint
		{degraded, 11},
		{lookup, 5},
	}
	var p baseline.Profiler
	distinct := map[trace.Features]bool{}
	for i, c := range cases {
		want := referenceProfile(c.spec, c.seed)
		if got := p.Profile(c.spec, c.seed); got != want {
			t.Fatalf("profile %d (%s, %d pages, seed %d): reused Profiler gave %+v, want %+v",
				i, c.spec.Name, c.spec.FootprintPages, c.seed, got, want)
		}
		if got := baseline.Profile(c.spec, c.seed); got != want {
			t.Fatalf("profile %d: baseline.Profile gave %+v, want %+v", i, got, want)
		}
		distinct[want] = true
	}
	if len(distinct) != len(cases) {
		t.Fatalf("%d distinct profiles over %d cases: the cases do not exercise reuse", len(distinct), len(cases))
	}
}

// A warm Profiler profiles a serving request without allocating.
func TestProfilerZeroAlloc(t *testing.T) {
	specs := servingSpecs()
	degraded := specs[1]
	degraded.MainAccesses /= 4
	specs = append(specs, degraded)
	var p baseline.Profiler
	const seeds = 8
	for i := 0; i < seeds*len(specs); i++ {
		p.Profile(specs[i%len(specs)], int64(i))
	}
	i := 0
	if n := testing.AllocsPerRun(100, func() {
		p.Profile(specs[i%len(specs)], int64(i%(seeds*len(specs))))
		i++
	}); n != 0 {
		t.Fatalf("warm Profile allocates %.1f per call, want 0", n)
	}
}
