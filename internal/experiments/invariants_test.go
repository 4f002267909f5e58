package experiments

import (
	"bytes"
	"testing"

	"repro/internal/invariant"
)

// TestAllExperimentsCleanUnderInvariants runs every registered experiment
// grid with the runtime checking layer enabled, at Workers=1 and Workers=8,
// and requires zero violations. Violations are collected (not panicked) so
// one failure reports every broken law instead of dying on the first. The
// same sweep checks that both renders of each experiment are byte-equal,
// and that together the experiments produce every table, each with rows.
//
// Not t.Parallel: it toggles the package-global invariant gate, so it must
// not overlap tests that assume checks are off. Go runs it to completion
// before any paused t.Parallel tests resume.
func TestAllExperimentsCleanUnderInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep; skipped in -short mode")
	}
	var violations []invariant.Violation
	restore := invariant.SetHandler(func(v invariant.Violation) {
		violations = append(violations, v)
	})
	defer restore()
	invariant.Reset()
	invariant.Enable()
	defer invariant.Disable()

	// Fidelity is irrelevant here; invariants must hold at any scale. The
	// five-way policyarena replay runs a further tier up to keep the
	// double sweep affordable.
	scaleFor := map[string]int{"policyarena": 32}
	var tables []Table
	for _, id := range IDs() {
		var renders [2]bytes.Buffer
		for i, workers := range []int{1, 8} {
			o := TestOptions()
			o.Scale = 16
			o.Workers = workers
			if s := scaleFor[id]; s != 0 {
				o.Scale = s
			}
			before := len(violations)
			ts, _ := Run(id, o)
			for _, tb := range ts {
				tb.Render(&renders[i])
			}
			if workers == 1 {
				tables = append(tables, ts...)
			}
			if n := len(violations) - before; n > 0 {
				t.Errorf("experiment %q (Workers=%d): %d invariant violations, first: %v",
					id, workers, n, violations[before])
			}
		}
		if renders[0].Len() == 0 {
			t.Errorf("experiment %q rendered nothing", id)
		}
		if !bytes.Equal(renders[0].Bytes(), renders[1].Bytes()) {
			t.Errorf("experiment %q: Workers=1 vs Workers=8 output differs:\n--- serial\n%s\n--- parallel\n%s",
				id, renders[0].Bytes(), renders[1].Bytes())
		}
	}
	if len(tables) < 18 {
		t.Errorf("every experiment together produced %d tables", len(tables))
	}
	for _, tb := range tables {
		if len(tb.Rows) == 0 {
			t.Errorf("table %s has no rows", tb.ID)
		}
	}
	if invariant.Checks() == 0 {
		t.Fatal("invariant layer evaluated zero checks across the full sweep; gate is not wired")
	}
	t.Logf("evaluated %d invariant checks, %d violations", invariant.Checks(), invariant.Violations())
}
