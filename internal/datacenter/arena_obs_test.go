package datacenter

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/analyze"
	"repro/internal/invariant"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// obsArenaConfig is a small enough fleet that no recorder hits the span
// event cap — span content comparisons below require lossless capture.
func obsArenaConfig(shards, workers int) ArenaConfig {
	cfg := arenaTestConfig(shards, workers)
	cfg.Tasks = 16
	return cfg
}

// runObservedArena executes one observed arena run and returns the exported
// trace and metrics artifacts.
func runObservedArena(t *testing.T, shards, workers int) (trace, metricsOut []byte) {
	t.Helper()
	restore := obs.Capture()
	defer restore()
	defer obs.Reset()
	res := NewArena(obsArenaConfig(shards, workers)).Run()
	if res.Completed == 0 {
		t.Fatal("arena completed nothing")
	}
	var tb, mb bytes.Buffer
	if err := obs.WriteTrace(&tb); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteMetricsCSV(&mb); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), mb.Bytes()
}

// TestArenaObservabilityWorkersInvariant locks the parallelism-invisibility
// guarantee for artifacts: at a fixed shard layout, the exported trace and
// metrics bytes are identical whether one worker or eight drive the windows.
// Runtime invariants stay enabled and clean throughout.
func TestArenaObservabilityWorkersInvariant(t *testing.T) {
	var violations []invariant.Violation
	restoreHandler := invariant.SetHandler(func(v invariant.Violation) {
		violations = append(violations, v)
	})
	defer restoreHandler()
	invariant.Enable()
	defer invariant.Disable()

	refTrace, refMetrics := runObservedArena(t, 8, 1)
	if len(refTrace) == 0 || len(refMetrics) == 0 {
		t.Fatal("observed run exported nothing")
	}
	gotTrace, gotMetrics := runObservedArena(t, 8, 8)
	if !bytes.Equal(refTrace, gotTrace) {
		t.Error("trace bytes differ between 1 and 8 shard workers")
	}
	if !bytes.Equal(refMetrics, gotMetrics) {
		t.Error("metrics bytes differ between 1 and 8 shard workers")
	}
	if len(violations) > 0 {
		t.Fatalf("invariants violated under sharded execution: first = %+v (of %d)", violations[0], len(violations))
	}
}

// spanKey is a span reduced to its layout-independent identity. Op IDs are
// deliberately excluded: they are allocation-ordered correlation handles, so
// their numeric values follow engine topology even though the operations
// they label do not (correlation itself is covered at fixed layout by the
// latency-attribution tests).
type spanKey struct {
	Track  string
	Name   string
	TsNs   int64
	DurNs  int64
	Stripe int
}

// canonicalObs reduces artifacts to their layout-independent content:
// the multiset of spans (virtual times, tracks, op correlation — with the
// per-engine run section stripped) and the per-name counter totals and
// merged histograms across all run sections.
func canonicalObs(t *testing.T, trace, metricsOut []byte) (spans []spanKey, counters map[string]float64, hists map[string]*metrics.Histogram) {
	t.Helper()
	tr, err := analyze.ParseTrace(trace)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range tr.Spans {
		spans = append(spans, spanKey{s.Track, s.Name, s.TsNs, s.DurNs, s.Stripe})
	}
	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		return fmt.Sprintf("%+v", a) < fmt.Sprintf("%+v", b)
	})
	m, err := analyze.ParseMetrics(metricsOut)
	if err != nil {
		t.Fatal(err)
	}
	counters = map[string]float64{}
	hists = map[string]*metrics.Histogram{}
	for _, run := range m.Runs {
		for name, v := range run.Counters {
			counters[name] += v
		}
		for name, h := range run.Hists {
			if hists[name] == nil {
				hists[name] = &metrics.Histogram{}
			}
			hists[name].Merge(h)
		}
	}
	return spans, counters, hists
}

// floatsClose compares accumulated float totals with a tiny relative
// tolerance: summing the same addends from differently partitioned run
// sections can reorder float additions.
func floatsClose(a, b float64) bool {
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	scale := a
	if scale < 0 {
		scale = -scale
	}
	return diff <= 1e-9*(1+scale)
}

// countersEqual compares per-name counter totals with floatsClose.
func countersEqual(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for name, v := range a {
		w, ok := b[name]
		if !ok || !floatsClose(v, w) {
			return false
		}
	}
	return true
}

// histsEqual compares merged histograms on their exact fields — observation
// count, min, max, and sparse bucket contents. Sums are compared with a tiny
// relative tolerance: merging the same observations from differently
// partitioned run sections can reorder float additions.
func histsEqual(a, b map[string]*metrics.Histogram) bool {
	if len(a) != len(b) {
		return false
	}
	for name, ha := range a {
		hb, ok := b[name]
		if !ok || ha.Count() != hb.Count() || ha.Min() != hb.Min() || ha.Max() != hb.Max() {
			return false
		}
		ai, ac := ha.Buckets()
		bi, bc := hb.Buckets()
		if !reflect.DeepEqual(ai, bi) || !reflect.DeepEqual(ac, bc) {
			return false
		}
		if !floatsClose(ha.Sum(), hb.Sum()) {
			return false
		}
	}
	return true
}

// TestArenaObservabilityCanonicalAcrossShards locks the layout-invariance
// guarantee: re-partitioning the fleet across 1, 2, or 8 shards moves
// components between sub-engines (and with them the artifact's per-engine
// run sections), but the observed *content* — every span at its virtual
// time, every counter total, every latency histogram — is identical.
func TestArenaObservabilityCanonicalAcrossShards(t *testing.T) {
	refTrace, refMetrics := runObservedArena(t, 1, 1)
	refSpans, refCounters, refHists := canonicalObs(t, refTrace, refMetrics)
	if len(refSpans) == 0 || len(refCounters) == 0 {
		t.Fatal("reference run observed nothing")
	}
	for _, shards := range []int{2, 8} {
		trace, metricsOut := runObservedArena(t, shards, shards)
		gotSpans, gotCounters, gotHists := canonicalObs(t, trace, metricsOut)
		if !reflect.DeepEqual(refSpans, gotSpans) {
			t.Errorf("shards=%d: span content differs from serial run (%d vs %d spans)",
				shards, len(refSpans), len(gotSpans))
			for i := range refSpans {
				if i < len(gotSpans) && refSpans[i] != gotSpans[i] {
					t.Logf("first diff at %d:\n  ref %+v\n  got %+v", i, refSpans[i], gotSpans[i])
					break
				}
			}
		}
		if !countersEqual(refCounters, gotCounters) {
			t.Errorf("shards=%d: counter totals differ from serial run", shards)
		}
		if !histsEqual(refHists, gotHists) {
			t.Errorf("shards=%d: histograms differ from serial run", shards)
		}
	}
}
