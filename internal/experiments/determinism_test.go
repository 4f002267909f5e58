package experiments

import (
	"bytes"
	"testing"
)

// renderExperiment runs one registered experiment end to end and returns the
// rendered tables as bytes.
func renderExperiment(t *testing.T, id string, o Options) []byte {
	t.Helper()
	tables, ok := Run(id, o)
	if !ok {
		t.Fatalf("Run(%q): unknown experiment", id)
	}
	var buf bytes.Buffer
	for _, tb := range tables {
		tb.Render(&buf)
	}
	if buf.Len() == 0 {
		t.Fatalf("Run(%q) rendered nothing", id)
	}
	return buf.Bytes()
}

// TestExperimentsDeterministic reruns fast experiments with the same seed
// and requires byte-identical output — the regression gate for the repo's
// reproducibility claim. Seeded differently, the output must change, so a
// trivially-constant experiment cannot pass by accident.
func TestExperimentsDeterministic(t *testing.T) {
	// faults is here as the flakiness-audit pin: its injection plan is keyed
	// by a map (faults.go byKey) and must stay lookup-only, never iterated
	// into output.
	for _, id := range []string{"fig3", "tab7", "faults"} {
		id := id
		t.Run(id, func(t *testing.T) {
			o := TestOptions()
			a := renderExperiment(t, id, o)
			b := renderExperiment(t, id, o)
			if !bytes.Equal(a, b) {
				t.Fatalf("same seed produced different output:\n--- first\n%s\n--- second\n%s", a, b)
			}
		})
	}
}

// TestParallelWorkersDeterministic is the tentpole regression gate for the
// parallel harness: the same experiment rendered with Workers=1 and
// Workers=8 must be byte-identical. Parallelism fans out across independent
// grid cells and results are assembled in cell order, so worker count must
// never leak into output. Exercised under -race by CI.
func TestParallelWorkersDeterministic(t *testing.T) {
	// fig16 regressed once via map-ordered Machine.BackendNames — keep it in
	// this list. serving is the open-loop sweep: its arrival trains and
	// template draws are seeded per-cell and must not share global state.
	// arena exercises the second parallelism axis too: grid workers outside,
	// a serial shard group inside each cell.
	// policyarena fans five policy cells across the same workers; policy
	// choice must be a pure function of model identity. It runs a scale
	// tier up: worker-count invariance is scale-blind, and the five-way
	// replay is the most expensive cell in the corpus.
	// cxlpool fans the ratio × mode grid over the fabric cells; the pool
	// ledger and in-fabric extender must be pure functions of the cell
	// configuration.
	scaleUp := map[string]int{"policyarena": 16}
	for _, id := range []string{"fig5a", "fig16", "fig17", "ablation", "serving", "arena", "policyarena", "cxlpool"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			serial := TestOptions()
			serial.Workers = 1
			if s := scaleUp[id]; s != 0 {
				serial.Scale = s
			}
			parallel := serial
			parallel.Workers = 8
			a := renderExperiment(t, id, serial)
			b := renderExperiment(t, id, parallel)
			if !bytes.Equal(a, b) {
				t.Fatalf("Workers=1 vs Workers=8 output differs:\n--- serial\n%s\n--- parallel\n%s", a, b)
			}
		})
	}
}

// TestPolicyRefactorEquivalence is the extraction regression gate: the
// pluggable placement policies that replaced the hand-rolled loops must
// reproduce them bit for bit. Options.Policy="" leaves every dispatcher on
// its pre-refactor default path (alg1 on the rack dispatcher, worst-fit on
// the arena); naming that default explicitly must not move a single byte,
// serial or parallel. Each case crosses the axes — the default policy
// rendered serially against the explicit spec rendered with eight workers —
// so one comparison catches a drift in either the extraction or the worker
// fan-out (worker invariance alone is separately pinned by
// TestParallelWorkersDeterministic). Scale 16 keeps the serving sweep
// affordable; the equivalence must hold at every scale, so any scale proves
// the extraction.
func TestPolicyRefactorEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment renders; skipped in -short mode")
	}
	cases := []struct {
		id     string
		policy string
	}{
		{"alg1", "alg1"},       // Algorithm 1's placement loops
		{"serving", "alg1"},    // the open-loop dispatcher shares them
		{"arena", "worst-fit"}, // the arena's spreading placement
	}
	for _, c := range cases {
		c := c
		t.Run(c.id+"/"+c.policy, func(t *testing.T) {
			t.Parallel()
			def := TestOptions()
			def.Scale = 16
			def.Workers = 1
			named := def
			named.Policy = c.policy
			named.Workers = 8
			a := renderExperiment(t, c.id, def)
			b := renderExperiment(t, c.id, named)
			if !bytes.Equal(a, b) {
				t.Fatalf("default policy (Workers=1) vs explicit %q (Workers=8) differs:\n--- default\n%s\n--- explicit\n%s",
					c.policy, a, b)
			}
		})
	}
}

func TestExperimentSeedChangesOutput(t *testing.T) {
	// fig17 is seed-sensitive (sampled workload trace); tab7 is analytic and
	// intentionally seed-independent, so it can't serve here.
	o := TestOptions()
	a := renderExperiment(t, "fig17", o)
	o.Seed += 17
	b := renderExperiment(t, "fig17", o)
	if bytes.Equal(a, b) {
		t.Fatal("different seeds produced identical fig17 output; seed is not plumbed through")
	}
}
