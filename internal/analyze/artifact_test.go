package analyze

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const obsTestdata = "../obs/testdata"

// MetricsSchemaWant pins the metrics schema the parser was written against;
// kept here (not imported from obs) so the tests also catch accidental
// drift between the exporter constant and the committed goldens.
const MetricsSchemaWant = "xdm-metrics/2"

func TestParseMetricsErrors(t *testing.T) {
	const schema = "# schema: " + MetricsSchemaWant + "\n"
	cases := map[string]string{
		"empty":              "",
		"json garbage":       "{not json",
		"csv no schema line": "run,type,name,key,value\n0,counter,x,,1\n",
		"csv other schema":   "# schema: xdm-metrics/3\nrun,type,name,key,value\n",
		"csv no header":      schema + "0,counter,x,,1\n",
		"csv bad column":     schema + "run,type,name,key,value\n0,counter,x\n",
		"csv bad type":       schema + "run,type,name,key,value\n0,mystery,x,,1\n",
	}
	for name, data := range cases {
		if _, err := ParseMetrics([]byte(data)); err == nil {
			t.Errorf("%s: expected error, got none", name)
		}
	}
}

func TestParseMetricsFileMissing(t *testing.T) {
	if _, err := ParseMetricsFile(filepath.Join(t.TempDir(), "nope.csv")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestParseTraceErrors(t *testing.T) {
	if _, err := ParseTrace([]byte("not json")); err == nil {
		t.Fatal("expected error for garbage trace")
	}
	if _, err := ParseTraceFile(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Fatal("expected error for missing trace file")
	}
}

func TestParseOpDetail(t *testing.T) {
	cases := []struct {
		detail string
		op     uint64
		stripe int
	}{
		{"", 0, -1},
		{"flap", 0, -1},
		{"op=7", 7, -1},
		{"op=12 s=3", 12, 3},
		{"op=12 s=x", 12, -1},
		{"op=bad", 0, -1},
	}
	for _, c := range cases {
		op, stripe := parseOpDetail(c.detail)
		if op != c.op || stripe != c.stripe {
			t.Errorf("parseOpDetail(%q) = (%d,%d), want (%d,%d)", c.detail, op, stripe, c.op, c.stripe)
		}
	}
}

// writeTemp writes data to a temp file and returns its path.
func writeTemp(t *testing.T, name, data string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseSummaryRoundTrip(t *testing.T) {
	s := &Summary{Schema: SummarySchema, Source: "xdm-metrics/2", Label: "x",
		Hists: []HistStats{{Name: "a", Count: 1, Sum: 2, Min: 2, Max: 2, Mean: 2, P50: 2, P95: 2, P99: 2}}}
	data, err := s.Render()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseSummary(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Label != "x" || len(got.Hists) != 1 || got.Hists[0].P99 != 2 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if !strings.Contains(string(data), `"schema": "`+SummarySchema+`"`) {
		t.Fatalf("rendered summary missing schema: %s", data)
	}
	if _, err := ParseSummary([]byte(`{"schema":"xdm-latency-summary/99"}`)); err == nil {
		t.Fatal("expected schema error")
	}
	if _, err := ParseSummary([]byte(`{broken`)); err == nil {
		t.Fatal("expected JSON error")
	}
}
