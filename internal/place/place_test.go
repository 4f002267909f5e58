package place

import (
	"math/rand"
	"testing"
)

// cand builds a healthy, accepting candidate with the given resources.
func cand(id, cores, pages int) Candidate {
	return Candidate{
		ID: id, FreeCores: cores, FreePages: pages,
		TotalCores: cores, TotalPages: pages,
		Tier: 1, Healthy: true, Accepts: true,
	}
}

func TestPredicatesExcludeCandidates(t *testing.T) {
	p := Builtin("worst-fit")
	r := Request{Cores: 1, Pages: 10}
	base := cand(0, 4, 100)
	if got := p.Place(r, []Candidate{base}); got != 0 {
		t.Fatalf("baseline candidate rejected: got %d", got)
	}
	mutations := []struct {
		name string
		mut  func(c *Candidate)
	}{
		{"unhealthy", func(c *Candidate) { c.Healthy = false }},
		{"not accepting", func(c *Candidate) { c.Accepts = false }},
		{"incompatible tier", func(c *Candidate) { c.Tier = 0 }},
		{"no cores", func(c *Candidate) { c.FreeCores = 0 }},
		{"no pages", func(c *Candidate) { c.FreePages = 9 }},
	}
	for _, m := range mutations {
		c := base
		m.mut(&c)
		if got := p.Place(r, []Candidate{c}); got != -1 {
			t.Errorf("%s candidate was placed (got %d, want -1)", m.name, got)
		}
	}
}

func TestBestFitPacksWorstFitSpreads(t *testing.T) {
	// Node 1 is fuller (less free) than node 0.
	cands := []Candidate{cand(0, 4, 100), cand(1, 2, 40)}
	r := Request{Cores: 1, Pages: 10}
	if got := Builtin("best-fit").Place(r, cands); got != 1 {
		t.Errorf("best-fit chose %d, want the fuller node 1", got)
	}
	if got := Builtin("worst-fit").Place(r, cands); got != 0 {
		t.Errorf("worst-fit chose %d, want the emptier node 0", got)
	}
}

// TestWorstFitMatchesLegacyArenaPlace pins the equivalence the arena's
// default rests on: worst-fit's lexicographic (free cores, free pages,
// lowest ID) choice is exactly the arena's pre-policy placement scan,
// reproduced below.
func TestWorstFitMatchesLegacyArenaPlace(t *testing.T) {
	legacy := func(r Request, cands []Candidate) int {
		best := -1
		for i, c := range cands {
			if c.FreeCores < r.Cores || c.FreePages < r.Pages {
				continue
			}
			if best < 0 || c.FreeCores > cands[best].FreeCores ||
				(c.FreeCores == cands[best].FreeCores && c.FreePages > cands[best].FreePages) {
				best = i
			}
		}
		return best
	}
	p := Builtin("worst-fit")
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(12)
		cands := make([]Candidate, n)
		for i := range cands {
			cands[i] = cand(i, rng.Intn(5), rng.Intn(64))
		}
		r := Request{Cores: 1 + rng.Intn(3), Pages: 1 + rng.Intn(48)}
		if got, want := p.Place(r, cands), legacy(r, cands); got != want {
			t.Fatalf("trial %d: worst-fit chose %d, legacy scan chose %d (req %+v, cands %+v)",
				trial, got, want, r, cands)
		}
	}
}

// TestAlg1TierOrdering pins Algorithm 1's preference classes: the highest
// tier wins regardless of resource levels, and within a tier the lowest ID
// (first match in VM order) wins.
func TestAlg1TierOrdering(t *testing.T) {
	p := Builtin("alg1")
	r := Request{Cores: 1, Pages: 1}
	tiered := func(id, tier int) Candidate {
		c := cand(id, 4, 100)
		c.Tier = tier
		return c
	}
	if got := p.Place(r, []Candidate{tiered(0, 1), tiered(1, 3), tiered(2, 2)}); got != 1 {
		t.Errorf("highest tier lost: got %d, want 1", got)
	}
	if got := p.Place(r, []Candidate{tiered(5, 2), tiered(3, 2), tiered(4, 2)}); got != 3 {
		t.Errorf("within-tier first match lost: got %d, want 3", got)
	}
}

func TestOversubRelaxesMemoryOnly(t *testing.T) {
	p := Builtin("oversub:1.25")
	c := cand(0, 4, 0) // full memory, free cores
	c.TotalPages = 100
	r := Request{Cores: 1, Pages: 25}
	if got := p.Place(r, []Candidate{c}); got != 0 {
		t.Errorf("oversub:1.25 refused a request inside its slack (got %d)", got)
	}
	if got := p.Place(Request{Cores: 1, Pages: 26}, []Candidate{c}); got != -1 {
		t.Errorf("oversub:1.25 admitted a request beyond its slack (got %d)", got)
	}
	if got := Builtin("best-fit").Place(r, []Candidate{c}); got != -1 {
		t.Errorf("best-fit admitted beyond physical memory (got %d)", got)
	}
}

func TestOvercommitSlack(t *testing.T) {
	cases := []struct {
		factor float64
		total  int
		want   int
	}{
		{1, 100, 0},
		{0.5, 100, 0}, // sub-1 factors grant nothing
		{1.25, 100, 25},
		{1.25, 10, 2}, // floors, never rounds up
		{2, 64, 64},
	}
	for _, c := range cases {
		if got := OvercommitSlack(c.factor, c.total); got != c.want {
			t.Errorf("OvercommitSlack(%g, %d) = %d, want %d", c.factor, c.total, got, c.want)
		}
	}
}

func TestOneShotMarker(t *testing.T) {
	if !Builtin("one-shot").OneShot() {
		t.Error("one-shot policy does not report OneShot")
	}
	if !Builtin("best-fit+one-shot").OneShot() {
		t.Error("+one-shot extender does not report OneShot")
	}
	if Builtin("best-fit").OneShot() {
		t.Error("best-fit reports OneShot")
	}
}

func TestWarmPoolPrefersLoadedTargets(t *testing.T) {
	p := Builtin("worst-fit+warm-pool")
	idle := cand(0, 4, 100)
	warm := cand(1, 2, 50)
	warm.Load = 1
	r := Request{Cores: 1, Pages: 10}
	// Worst-fit alone would pick the idle node 0; warm-pool overrides.
	if got := p.Place(r, []Candidate{idle, warm}); got != 1 {
		t.Errorf("warm-pool chose %d, want the warm node 1", got)
	}
	// With no warm candidate the scored choice stands.
	if got := p.Place(r, []Candidate{idle, cand(1, 2, 50)}); got != 0 {
		t.Errorf("warm-pool with all-cold fleet chose %d, want 0", got)
	}
}

func TestPlacePermutationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, spec := range []string{"alg1", "best-fit", "worst-fit", "oversub:1.25", "one-shot", "mix:load=2,warm=1"} {
		p := Builtin(spec)
		for trial := 0; trial < 100; trial++ {
			n := 2 + rng.Intn(10)
			cands := make([]Candidate, n)
			for i := range cands {
				c := cand(i, rng.Intn(5), rng.Intn(64))
				c.Load = rng.Intn(3)
				c.Tier = 1 + rng.Intn(3)
				cands[i] = c
			}
			r := Request{Cores: 1 + rng.Intn(2), Pages: rng.Intn(48)}
			want := p.Place(r, cands)
			shuffled := append([]Candidate(nil), cands...)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			if got := p.Place(r, shuffled); got != want {
				t.Fatalf("%s: permuting candidates changed the choice: %d vs %d", spec, got, want)
			}
		}
	}
}

func TestBuiltinPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Builtin(\"nope\") did not panic")
		}
	}()
	Builtin("nope")
}
