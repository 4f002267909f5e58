// Package analyze is the post-run analysis tier over the obs export formats:
// it parses the CSV metrics artifact and Chrome trace-event files,
// reconstructs histograms and timelines, correlates per-op spans into exact
// stage breakdowns, reduces everything to a compact latency summary, and
// diffs two summaries for regression gating. cmd/xdmtrace is its CLI.
//
// The package deliberately reuses the measurement primitives in
// internal/metrics (Histogram bucket reconstruction, BucketTimeline
// aggregate accessors) instead of re-deriving quantile or bucket math — the
// artifact is a serialization of those types, not a foreign schema.
package analyze

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Run is one recorder's worth of parsed metrics.
type Run struct {
	Counters  map[string]float64
	Gauges    map[string]float64
	Hists     map[string]*metrics.Histogram
	Timelines map[string]*Timeline
}

// Timeline is a parsed bucketed series, reconstructed into a BucketTimeline
// so the aggregate accessors (Mean/Peak/Integrate) apply directly. The
// exported values are already bucket levels (sum or mean, as recorded).
type Timeline struct {
	WidthNs int64
	TL      *metrics.BucketTimeline
	// Len is one past the last populated bucket, for idle-fraction math.
	Len int
}

// Metrics is a parsed metrics artifact.
type Metrics struct {
	Runs []*Run
}

func newRun() *Run {
	return &Run{
		Counters:  map[string]float64{},
		Gauges:    map[string]float64{},
		Hists:     map[string]*metrics.Histogram{},
		Timelines: map[string]*Timeline{},
	}
}

// histAccum gathers hist CSV rows until the run is complete.
type histAccum struct {
	h                  *metrics.Histogram
	count              uint64
	sum, minV, maxV    float64
	haveCount, haveAgg bool
}

// csvHeader is the column line that follows the schema line.
const csvHeader = "run,type,name,key,value"

// ParseMetrics parses a CSV metrics artifact (obs.WriteMetricsCSV). The
// first line must be "# schema: " + obs.MetricsSchema and the second the
// column header; a file without them is refused.
func ParseMetrics(data []byte) (*Metrics, error) {
	lines := strings.Split(string(data), "\n")
	schema, ok := strings.CutPrefix(lines[0], "# schema: ")
	if !ok {
		return nil, fmt.Errorf("analyze: not a metrics CSV (no %q line)", "# schema: "+obs.MetricsSchema)
	}
	if schema != obs.MetricsSchema {
		return nil, fmt.Errorf("analyze: metrics schema %q, want %q", schema, obs.MetricsSchema)
	}
	if len(lines) < 2 || lines[1] != csvHeader {
		return nil, fmt.Errorf("analyze: not a metrics CSV (missing %q header)", csvHeader)
	}
	m := &Metrics{}
	runs := map[int]*Run{}
	accums := map[int]map[string]*histAccum{}
	for i, line := range lines[2:] {
		ln := i + 3
		if line == "" {
			continue
		}
		parts := strings.SplitN(line, ",", 5)
		if len(parts) != 5 {
			return nil, fmt.Errorf("analyze: metrics CSV line %d: %q", ln, line)
		}
		id, err := strconv.Atoi(parts[0])
		if err != nil {
			return nil, fmt.Errorf("analyze: metrics CSV line %d: run %q", ln, parts[0])
		}
		r := runs[id]
		if r == nil {
			r = newRun()
			runs[id] = r
			accums[id] = map[string]*histAccum{}
			m.Runs = append(m.Runs, r)
		}
		typ, name, key, val := parts[1], parts[2], parts[3], parts[4]
		switch typ {
		case "label", "recorder":
			// Run label and events/dropped bookkeeping rows; not needed
			// for analysis.
		case "counter":
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("analyze: metrics CSV line %d: %w", ln, err)
			}
			r.Counters[name] = v
		case "gauge":
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("analyze: metrics CSV line %d: %w", ln, err)
			}
			r.Gauges[name] = v
		case "hist":
			a := accums[id][name]
			if a == nil {
				a = &histAccum{h: &metrics.Histogram{}}
				accums[id][name] = a
			}
			if err := a.row(key, val); err != nil {
				return nil, fmt.Errorf("analyze: metrics CSV line %d: %w", ln, err)
			}
		case "timeline":
			t := r.Timelines[name]
			if key == "width_ns" {
				w, err := strconv.ParseInt(val, 10, 64)
				if err != nil || w <= 0 {
					return nil, fmt.Errorf("analyze: metrics CSV line %d: width %q", ln, val)
				}
				if t == nil {
					t = &Timeline{WidthNs: w, TL: metrics.NewBucketTimeline(sim.Duration(w))}
					// The export already coarsened; reconstruction must keep
					// the width, so lift the cap past any bucket count.
					t.TL.SetMaxBuckets(1 << 30)
					r.Timelines[name] = t
				}
				continue
			}
			if t == nil {
				return nil, fmt.Errorf("analyze: metrics CSV line %d: timeline %q bucket before width", ln, name)
			}
			b, err := strconv.Atoi(key)
			if err != nil {
				return nil, fmt.Errorf("analyze: metrics CSV line %d: bucket %q", ln, key)
			}
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("analyze: metrics CSV line %d: %w", ln, err)
			}
			t.TL.Add(sim.Time(int64(b)*t.WidthNs), v)
			t.Len = max(t.Len, b+1)
		default:
			return nil, fmt.Errorf("analyze: metrics CSV line %d: unknown type %q", ln, typ)
		}
	}
	for id, byName := range accums {
		for name, a := range byName {
			runs[id].Hists[name] = a.finish()
		}
	}
	return m, nil
}

// ParseMetricsFile reads and parses the metrics artifact at path.
func ParseMetricsFile(path string) (*Metrics, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := ParseMetrics(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

func (a *histAccum) row(key, val string) error {
	switch {
	case key == "count":
		n, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return err
		}
		a.count = n
		a.haveCount = true
	case key == "sum" || key == "min" || key == "max":
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return err
		}
		switch key {
		case "sum":
			a.sum = v
		case "min":
			a.minV = v
		case "max":
			a.maxV = v
		}
		a.haveAgg = true
	case strings.HasPrefix(key, "p"):
		// Quantile rows are derived values; reconstruction recomputes them.
	case strings.HasPrefix(key, "b"):
		i, err := strconv.Atoi(key[1:])
		if err != nil {
			return fmt.Errorf("bucket key %q", key)
		}
		c, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return err
		}
		a.h.AddBucket(i, c)
	default:
		return fmt.Errorf("unknown hist key %q", key)
	}
	return nil
}

func (a *histAccum) finish() *metrics.Histogram {
	if a.haveCount || a.haveAgg {
		a.h.SetStats(a.count, a.sum, a.minV, a.maxV)
	}
	return a.h
}

// mergedHists folds every run's histogram of the same name into one
// distribution per name (exact: log-bucketed histograms merge by adding
// counts), returning the merged map.
func (m *Metrics) mergedHists() map[string]*metrics.Histogram {
	out := map[string]*metrics.Histogram{}
	for _, r := range m.Runs {
		for name, h := range r.Hists {
			if agg, ok := out[name]; ok {
				agg.Merge(h)
			} else {
				cp := &metrics.Histogram{}
				cp.Merge(h)
				out[name] = cp
			}
		}
	}
	return out
}
