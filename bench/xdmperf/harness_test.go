package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// fig5bWorkload is a workload small enough for a unit test (about 50 ms a
// rep) that still has a golden file.
var fig5bWorkload = workload{
	name:    "fig5b",
	exps:    []string{"fig5b"},
	workers: 1,
	model: modelMetric{"model.rows", "count", func(ts []experiments.Table) (float64, error) {
		return float64(len(ts[0].Rows)), nil
	}},
}

// benchmarkMetricNames reads the metric names BENCHMARK.json declares.
func benchmarkMetricNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, m := range doc.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range doc.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func checkNames(t *testing.T, got map[string]metric, want []string) {
	t.Helper()
	var names []string
	for n, m := range got {
		if !metricName.MatchString(n) {
			t.Errorf("metric name %q does not match %v", n, metricName)
		}
		if m.Unit == "" {
			t.Errorf("metric %s has no unit", n)
		}
		names = append(names, n)
	}
	sort.Strings(names)
	want = append([]string(nil), want...)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("emitted metrics %v, BENCHMARK.json declares %v", names, want)
	}
	for i := range names {
		if names[i] != want[i] {
			t.Fatalf("emitted metrics %v, BENCHMARK.json declares %v", names, want)
		}
	}
}

// TestHarnessColdAndWarmRep runs one cold and one warm rep of fig5b through
// the path the real workloads take, untraced and traced: golden check,
// metric emission, and metric names exactly as BENCHMARK.json declares them.
func TestHarnessColdAndWarmRep(t *testing.T) {
	endToEnd, perLayer := benchmarkMetricNames(t)
	for _, traced := range []bool{false, true} {
		r, err := newRunner(fig5bWorkload, 1, "../..")
		if err != nil {
			t.Fatal(err)
		}
		rep, err := measure(r, 1, traced, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		res := rep.result
		attempted := 2 // cold and warm rep; a traced run repeats the warm rep traced
		if traced {
			attempted = 3
		}
		if !res.Correct || res.Attempted != attempted || res.Failed != 0 {
			t.Fatalf("traced=%v: correct=%v attempted=%d failed=%d, errors %v",
				traced, res.Correct, res.Attempted, res.Failed, rep.stamp.Errors)
		}
		if !rep.stamp.GoldenCheck || len(rep.stamp.OutputSHA256) != 64 {
			t.Errorf("stamp %+v: want a golden-checked run with an output digest", rep.stamp)
		}
		if traced {
			checkNames(t, res.Metrics, perLayer)
			continue
		}
		checkNames(t, res.Metrics, endToEnd)
		for n, m := range res.Metrics {
			if m.Value <= 0 {
				t.Errorf("end-to-end metric %s = %v, want > 0", n, m.Value)
			}
		}
	}
}

// TestBadOperationsCountAsFailed feeds the harness a corrupted render or a
// panic and checks that each is one failed operation.
func TestBadOperationsCountAsFailed(t *testing.T) {
	cases := []struct {
		name   string
		seed   int64
		badRep int  // 1-based call of experiments.Run that goes wrong
		panics bool // panic instead of corrupting a cell
	}{
		{"golden mismatch", 1, 1, false},
		{"differs from rep 1", 2, 2, false},
		{"panic", 2, 1, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r, err := newRunner(fig5bWorkload, c.seed, "../..")
			if err != nil {
				t.Fatal(err)
			}
			calls := 0
			r.run = func(id string, o experiments.Options) ([]experiments.Table, bool) {
				calls++
				tables, ok := experiments.Run(id, o)
				if calls == c.badRep {
					if c.panics {
						panic("injected")
					}
					tables[0].Rows[0][1] = "9.99"
				}
				return tables, ok
			}
			rep, err := measure(r, 2, false, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			res := rep.result
			if res.Correct || res.Attempted != 3 || res.Failed != 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d, want false 3 1 (errors %v)",
					res.Correct, res.Attempted, res.Failed, rep.stamp.Errors)
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{7, 1, 3, 9, 5}
	var samples []sample
	for _, x := range xs {
		samples = append(samples, sample{alloc: uint64(x)})
	}
	// statistics.quantiles([1, 3, 5, 7, 9], n=4) == [2.0, 5.0, 8.0]
	got := spreadOf(samples, func(s sample) float64 { return float64(s.alloc) })
	if got != (spread{Median: 5, Q1: 2, Q3: 8, N: 5}) {
		t.Fatalf("spreadOf = %+v, want median 5, q1 2, q3 8, n 5", got)
	}
}

func TestModelMetricsFromGolden(t *testing.T) {
	// The seed-1 values the golden corpus pins.
	want := map[string]float64{
		"node-swap":     1.3705882352941174,
		"arena-sharded": 49.77 / 27.04,
		"policy-replay": 1.26,
		"serving-ramp":  4800,
	}
	for _, w := range workloads {
		var tables []experiments.Table
		for _, id := range w.exps {
			tables = append(tables, goldenTables(t, id)...)
		}
		got, err := w.model.of(tables)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if d := got - want[w.name]; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s: %s = %v, want %v", w.name, w.model.name, got, want[w.name])
		}
	}
}

// goldenTables parses an experiment's golden render back into tables: a
// "== id: title ==" line, the column header, a dashed rule, rows whose
// cells are separated by two or more spaces, then notes.
func goldenTables(t *testing.T, id string) []experiments.Table {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("../..", goldenDir, id+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	gap := regexp.MustCompile(` {2,}`)
	var tables []experiments.Table
	for _, block := range strings.Split(strings.TrimSpace(string(raw)), "\n\n") {
		lines := strings.Split(block, "\n")
		head := strings.TrimSuffix(strings.TrimPrefix(lines[0], "== "), " ==")
		tid, _, _ := strings.Cut(head, ":")
		tb := experiments.Table{ID: tid, Columns: gap.Split(lines[1], -1)}
		for _, l := range lines[3:] {
			if !strings.HasPrefix(l, "note: ") {
				tb.Rows = append(tb.Rows, gap.Split(l, -1))
			}
		}
		tables = append(tables, tb)
	}
	return tables
}
