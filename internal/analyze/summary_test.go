package analyze

import (
	"math"
	"path/filepath"
	"testing"
)

func TestSummarizeContents(t *testing.T) {
	m, err := ParseMetricsFile(filepath.Join(obsTestdata, "scenario.metrics.csv"))
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(m, "golden")
	if s.Schema != SummarySchema || s.Source != MetricsSchemaWant || s.Label != "golden" {
		t.Fatalf("header fields: %+v", s)
	}
	byName := map[string]*HistStats{}
	for i := range s.Hists {
		byName[s.Hists[i].Name] = &s.Hists[i]
	}
	for _, want := range []string{"dev/ssd0/read", "dev/ssd0/issue", "pcie/alloc-wait"} {
		if byName[want] == nil {
			t.Fatalf("summary missing hist %q (have %d hists)", want, len(s.Hists))
		}
	}
	issue := byName["dev/ssd0/issue"]
	if issue.Count == 0 || issue.P99 < issue.P50 || issue.Max < issue.P99 {
		t.Fatalf("issue hist not ordered: %+v", issue)
	}
	for i := 1; i < len(s.Hists); i++ {
		if s.Hists[i-1].Name >= s.Hists[i].Name {
			t.Fatalf("hists not sorted: %q before %q", s.Hists[i-1].Name, s.Hists[i].Name)
		}
	}
	for _, u := range s.Utils {
		if u.Idle < 0 || u.Idle > 1 {
			t.Fatalf("idle fraction out of range: %+v", u)
		}
		if u.Peak < u.Mean {
			t.Fatalf("peak below mean: %+v", u)
		}
	}
}

func mkSummary(p99s map[string]float64) *Summary {
	s := &Summary{Schema: SummarySchema, Source: MetricsSchemaWant}
	for name, v := range p99s {
		s.Hists = append(s.Hists, HistStats{Name: name, Count: 100,
			Sum: v * 50, Min: v / 2, Max: v, Mean: v * 0.7, P50: v / 2, P95: v * 0.9, P99: v})
	}
	return s
}

func TestDiffIdenticalClean(t *testing.T) {
	old := mkSummary(map[string]float64{"a": 1000, "b": 2000})
	res, err := Diff(old, mkSummary(map[string]float64{"a": 1000, "b": 2000}), DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if regs := res.Regressions(); len(regs) != 0 {
		t.Fatalf("identical summaries flagged: %+v", regs)
	}
	if len(res.Deltas) != 10 { // 2 hists × 5 stats
		t.Fatalf("deltas = %d, want 10", len(res.Deltas))
	}
	if len(res.OnlyOld)+len(res.OnlyNew) != 0 {
		t.Fatalf("coverage drift on identical inputs: %+v %+v", res.OnlyOld, res.OnlyNew)
	}
}

func TestDiffFlagsRegression(t *testing.T) {
	old := mkSummary(map[string]float64{"a": 1000})
	res, err := Diff(old, mkSummary(map[string]float64{"a": 1100}), DiffOptions{Rel: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	regs := res.Regressions()
	if len(regs) == 0 {
		t.Fatal("10% p99 regression not flagged at rel=0.05")
	}
	for _, r := range regs {
		if r.Ratio < 1.05 {
			t.Fatalf("flagged delta below threshold: %+v", r)
		}
	}
	// The same delta passes under a looser threshold.
	res, err = Diff(old, mkSummary(map[string]float64{"a": 1100}), DiffOptions{Rel: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if regs := res.Regressions(); len(regs) != 0 {
		t.Fatalf("10%% delta flagged at rel=0.2: %+v", regs)
	}
}

func TestDiffImprovementNotFlagged(t *testing.T) {
	res, err := Diff(mkSummary(map[string]float64{"a": 1000}),
		mkSummary(map[string]float64{"a": 500}), DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if regs := res.Regressions(); len(regs) != 0 {
		t.Fatalf("improvement flagged as regression: %+v", regs)
	}
}

func TestDiffZeroBaseline(t *testing.T) {
	old := mkSummary(map[string]float64{"a": 0})
	res, err := Diff(old, mkSummary(map[string]float64{"a": 100}), DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	regs := res.Regressions()
	if len(regs) == 0 {
		t.Fatal("zero->nonzero not flagged")
	}
	if !math.IsInf(regs[0].Ratio, 1) {
		t.Fatalf("ratio = %g, want +Inf", regs[0].Ratio)
	}
	res, err = Diff(old, mkSummary(map[string]float64{"a": 0}), DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if regs := res.Regressions(); len(regs) != 0 {
		t.Fatalf("zero->zero flagged: %+v", regs)
	}
}

func TestDiffCoverageDrift(t *testing.T) {
	res, err := Diff(mkSummary(map[string]float64{"a": 1, "gone": 2}),
		mkSummary(map[string]float64{"a": 1, "new": 3}), DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.OnlyOld) != 1 || res.OnlyOld[0] != "gone" {
		t.Fatalf("OnlyOld = %v", res.OnlyOld)
	}
	if len(res.OnlyNew) != 1 || res.OnlyNew[0] != "new" {
		t.Fatalf("OnlyNew = %v", res.OnlyNew)
	}
	if regs := res.Regressions(); len(regs) != 0 {
		t.Fatalf("coverage drift alone flagged: %+v", regs)
	}
}

func TestDiffSchemaMismatch(t *testing.T) {
	old := mkSummary(map[string]float64{"a": 1})
	new_ := mkSummary(map[string]float64{"a": 1})
	new_.Source = "xdm-metrics/3"
	if _, err := Diff(old, new_, DiffOptions{}); err == nil {
		t.Fatal("source schema mismatch not refused")
	}
}
