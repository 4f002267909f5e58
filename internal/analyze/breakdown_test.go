package analyze

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGoldenBreakdown correlates the fixed obs golden scenario's trace into
// per-op stage breakdowns and pins them. Two layers of checking:
//
//  1. Structural invariants that must hold for ANY trace: every breakdown's
//     stages plus Unattributed sum exactly to the end-to-end duration, and
//     Unattributed is never negative (a negative value would mean a stage was
//     double-counted).
//  2. A golden file, because virtual time makes the exact nanosecond
//     attribution reproducible. Regenerate with -update after intentional
//     scenario or instrumentation changes.
func TestGoldenBreakdown(t *testing.T) {
	tr, err := ParseTraceFile(filepath.Join(obsTestdata, "scenario.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	bs := Correlate(tr)
	if len(bs) == 0 {
		t.Fatal("no correlated ops in golden trace")
	}
	retried := 0
	for i := range bs {
		b := &bs[i]
		if got := b.Attributed() + b.UnattributedNs; got != b.E2ENs {
			t.Errorf("op %d: stages sum to %d ns, e2e %d ns", b.OpID, got, b.E2ENs)
		}
		if b.UnattributedNs < 0 {
			t.Errorf("op %d: negative unattributed %d ns (stage double-counted)", b.OpID, b.UnattributedNs)
		}
		if b.UnattributedNs > 0 {
			retried++
		}
		if b.TransferNs == 0 {
			t.Errorf("op %d: no critical transfer matched", b.OpID)
		}
	}
	// The scenario injects exactly one timeout+retry; only that op carries
	// backoff/timeout time the stage chain cannot attribute. Every clean
	// single-attempt op decomposes exactly (Unattributed == 0).
	if retried != 1 {
		t.Errorf("ops with unattributed time = %d, want exactly 1 (the retried op)", retried)
	}

	got, err := json.MarshalIndent(bs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "scenario.breakdown.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("breakdown drifted from golden (run with -update if intentional)\ngot %d bytes, want %d", len(got), len(want))
	}
}

// TestBreakdownTotals cross-checks the aggregate against the per-op rows.
func TestBreakdownTotals(t *testing.T) {
	tr, err := ParseTraceFile(filepath.Join(obsTestdata, "scenario.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	bs := Correlate(tr)
	tot := Totals(bs)
	if tot.Ops != len(bs) {
		t.Fatalf("Ops = %d, want %d", tot.Ops, len(bs))
	}
	var e2e, attr int64
	for i := range bs {
		e2e += bs[i].E2ENs
		attr += bs[i].Attributed()
	}
	if tot.E2ENs != e2e {
		t.Fatalf("E2E total = %d, want %d", tot.E2ENs, e2e)
	}
	if got := tot.QueueNs + tot.ArbitrateNs + tot.TransferNs + tot.HostCopyNs; got != attr {
		t.Fatalf("attributed total = %d, want %d", got, attr)
	}
	if tot.E2ENs != attr+tot.UnattributedNs {
		t.Fatalf("totals do not close: e2e %d, attributed %d, unattributed %d",
			tot.E2ENs, attr, tot.UnattributedNs)
	}
}

// TestAttachStages exercises the stage-histogram family on the golden trace.
func TestAttachStages(t *testing.T) {
	tr, err := ParseTraceFile(filepath.Join(obsTestdata, "scenario.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	bs := Correlate(tr)
	m, err := ParseMetricsFile(filepath.Join(obsTestdata, "scenario.metrics.csv"))
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(m, "golden")
	s.AttachStages(bs)
	if s.Stages == nil || s.Stages.Ops != len(bs) {
		t.Fatalf("stages not attached: %+v", s.Stages)
	}
	found := false
	for i := range s.Hists {
		if s.Hists[i].Name == "stage/e2e" {
			found = true
			if s.Hists[i].Count != uint64(len(bs)) {
				t.Fatalf("stage/e2e count = %d, want %d", s.Hists[i].Count, len(bs))
			}
		}
	}
	if !found {
		t.Fatal("stage/e2e histogram missing after AttachStages")
	}
	for i := 1; i < len(s.Hists); i++ {
		if s.Hists[i-1].Name >= s.Hists[i].Name {
			t.Fatalf("hists unsorted after AttachStages: %q before %q",
				s.Hists[i-1].Name, s.Hists[i].Name)
		}
	}
}
