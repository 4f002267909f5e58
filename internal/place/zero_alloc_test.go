package place

import "testing"

// A policy without a feasible-set extender scans the fleet in place: one
// placement on a 5000-node ledger allocates nothing. The warm-pool
// extender reads the feasible set, so its policy still collects one.
func TestPlaceZeroAlloc(t *testing.T) {
	const nodes = 5000
	l := NewLedger(nodes, 4, 1024, DefaultOversubFactor)
	for i := 0; i < nodes; i += 3 {
		l.Reserve(i, 1+i%3, 128*(1+i%5))
	}
	r := Request{Cores: 1, Pages: 256}
	for _, name := range []string{"worst-fit", "best-fit", "alg1", "oversub:1.25", "one-shot"} {
		p := Builtin(name)
		if p.Place(r, l.Candidates()) < 0 {
			t.Fatalf("%s placed nothing", name)
		}
		if n := testing.AllocsPerRun(20, func() { p.Place(r, l.Candidates()) }); n != 0 {
			t.Errorf("%s: Place allocates %.1f per call on %d candidates, want 0", name, n, nodes)
		}
	}
	warm := Builtin("best-fit+warm-pool")
	if n := testing.AllocsPerRun(20, func() { warm.Place(r, l.Candidates()) }); n == 0 {
		t.Error("best-fit+warm-pool placed without collecting the feasible set its extender reads")
	}
}
