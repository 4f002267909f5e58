package analyze

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// SummarySchema versions the latency-summary artifact — the compact,
// regression-gateable reduction of a run that xdmsim -latency emits and CI
// baselines commit. Bump when fields change meaning.
const SummarySchema = "xdm-latency-summary/1"

// HistStats is the summary of one latency distribution.
type HistStats struct {
	Name  string  `json:"name"`
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// UtilStats is the summary of one level-style timeline (utilization,
// queue depth): run-average level, peak bucket level, the idle fraction
// (buckets at level zero), and the time integral in value-seconds.
type UtilStats struct {
	Name     string  `json:"name"`
	Mean     float64 `json:"mean"`
	Peak     float64 `json:"peak"`
	Idle     float64 `json:"idle"`
	Integral float64 `json:"integral"`
}

// Summary is the latency-summary artifact: merged histograms, timeline
// aggregates, and (when a trace was available) the stage attribution totals.
type Summary struct {
	Schema string `json:"schema"`
	// Source records the schema of the metrics artifact the summary was
	// reduced from, so diff can refuse cross-version comparisons.
	Source string       `json:"source_schema,omitempty"`
	Label  string       `json:"label,omitempty"`
	Hists  []HistStats  `json:"hists"`
	Utils  []UtilStats  `json:"utils"`
	Stages *StageTotals `json:"stages,omitempty"`
}

// Summarize reduces a parsed metrics artifact to a Summary: histograms of
// the same name across runs merge exactly (shared log-bucket layout);
// level-style timelines reduce via the BucketTimeline aggregate accessors.
func Summarize(m *Metrics, label string) *Summary {
	s := &Summary{Schema: SummarySchema, Source: obs.MetricsSchema, Label: label}
	merged := m.mergedHists()
	names := make([]string, 0, len(merged))
	for name := range merged {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := merged[name]
		s.Hists = append(s.Hists, HistStats{
			Name:  name,
			Count: uint64(h.Count()),
			Sum:   h.Sum(),
			Min:   h.Min(),
			Max:   h.Max(),
			Mean:  h.Mean(),
			P50:   h.Quantile(0.50),
			P95:   h.Quantile(0.95),
			P99:   h.Quantile(0.99),
		})
	}

	// Timelines do not merge across runs (each run has its own virtual
	// clock); aggregate each and average the aggregates weighted equally.
	type utilAccum struct {
		mean, peak, idle, integral float64
		n                          int
	}
	utils := map[string]*utilAccum{}
	for _, r := range m.Runs {
		for name, t := range r.Timelines {
			a := utils[name]
			if a == nil {
				a = &utilAccum{}
				utils[name] = a
			}
			a.n++
			a.mean += t.TL.Mean()
			if p := t.TL.Peak(); p > a.peak {
				a.peak = p
			}
			a.integral += t.TL.Integrate()
			if t.Len > 0 {
				a.idle += 1 - float64(activeBuckets(t))/float64(t.Len)
			}
		}
	}
	utilNames := make([]string, 0, len(utils))
	for name := range utils {
		utilNames = append(utilNames, name)
	}
	sort.Strings(utilNames)
	for _, name := range utilNames {
		a := utils[name]
		s.Utils = append(s.Utils, UtilStats{
			Name:     name,
			Mean:     a.mean / float64(a.n),
			Peak:     a.peak,
			Idle:     a.idle / float64(a.n),
			Integral: a.integral,
		})
	}
	return s
}

// activeBuckets counts buckets with a non-zero level. Empty (never-sampled)
// buckets and sampled-at-zero buckets both count as idle.
func activeBuckets(t *Timeline) int {
	n := 0
	for i := 0; i < t.TL.Len(); i++ {
		if t.TL.Count(i) > 0 && t.TL.BucketMean(i) != 0 {
			n++
		}
	}
	return n
}

// AttachStages adds the stage attribution totals from correlated trace
// breakdowns to the summary, plus a per-stage latency histogram family
// (stage/e2e, stage/queue, ...) so quantiles of each stage are gateable too.
func (s *Summary) AttachStages(bs []StageBreakdown) {
	t := Totals(bs)
	s.Stages = &t
	stageHists := map[string]*metrics.Histogram{
		"stage/e2e":          {},
		"stage/queue":        {},
		"stage/arbitrate":    {},
		"stage/transfer":     {},
		"stage/host-copy":    {},
		"stage/unattributed": {},
	}
	for i := range bs {
		b := &bs[i]
		stageHists["stage/e2e"].Add(float64(b.E2ENs))
		stageHists["stage/queue"].Add(float64(b.QueueNs))
		stageHists["stage/arbitrate"].Add(float64(b.ArbitrateNs))
		stageHists["stage/transfer"].Add(float64(b.TransferNs))
		stageHists["stage/host-copy"].Add(float64(b.HostCopyNs))
		stageHists["stage/unattributed"].Add(float64(b.UnattributedNs))
	}
	names := make([]string, 0, len(stageHists))
	for name := range stageHists {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := stageHists[name]
		if h.Count() == 0 {
			continue
		}
		s.Hists = append(s.Hists, HistStats{
			Name:  name,
			Count: uint64(h.Count()),
			Sum:   h.Sum(),
			Min:   h.Min(),
			Max:   h.Max(),
			Mean:  h.Mean(),
			P50:   h.Quantile(0.50),
			P95:   h.Quantile(0.95),
			P99:   h.Quantile(0.99),
		})
	}
	sort.Slice(s.Hists, func(i, j int) bool { return s.Hists[i].Name < s.Hists[j].Name })
}

// Render serializes the summary as indented JSON with a trailing newline —
// the committed-baseline form (stable key order via struct fields).
func (s *Summary) Render() ([]byte, error) {
	out, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// ParseSummary parses a latency-summary artifact and validates its schema.
func ParseSummary(data []byte) (*Summary, error) {
	var s Summary
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("analyze: summary JSON: %w", err)
	}
	if s.Schema != SummarySchema {
		return nil, fmt.Errorf("analyze: summary schema %q, want %q", s.Schema, SummarySchema)
	}
	return &s, nil
}
