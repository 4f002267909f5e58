// Package conformance is the shared contract-test harness every placement
// policy must pass — built-in or user-composed. A policy plugged into the
// dispatcher or the arena is trusted with two things: it never places work
// outside the feasibility envelope the predicates define, and it is a pure,
// permutation-invariant function of (request, candidates) so simulations stay
// byte-identical across shard layouts and worker counts. Run exercises both,
// plus the resource-ledger round trip the frontends drive (reserve on place,
// release on completion, conservation at the end).
//
// Use it for new policies the way place's own tests do:
//
//	func TestMyPolicy(t *testing.T) {
//		conformance.Run(t, place.Builtin("mix:load=2,warm=1"))
//	}
package conformance

import (
	"math/rand"
	"testing"

	"repro/internal/place"
)

// Fleet shape for the ledger round trip; small enough to stress collisions,
// large enough for policies to differentiate targets.
const (
	nodes        = 8
	coresPerNode = 4
	pagesPerNode = 256
)

// Run asserts the placement-policy contract on p. It is safe to call in
// parallel subtests: p is never mutated (Place is read-only by contract, and
// a violation fails the test).
func Run(t *testing.T, p *place.Policy) {
	t.Helper()
	t.Run("feasible-only", func(t *testing.T) { checkFeasibleOnly(t, p) })
	t.Run("permutation-invariant", func(t *testing.T) { checkPermutationInvariant(t, p) })
	t.Run("rejects-unhealthy", func(t *testing.T) { checkRejectsUnhealthy(t, p) })
	t.Run("deterministic", func(t *testing.T) { checkDeterministic(t, p) })
	t.Run("ledger-conservation", func(t *testing.T) { checkLedgerConservation(t, p) })
}

// randomCandidates draws a fleet snapshot with all the status bits in play:
// some unhealthy, some non-accepting, some incompatible, resources scattered.
func randomCandidates(rng *rand.Rand, n int) []place.Candidate {
	cands := make([]place.Candidate, n)
	for i := range cands {
		cands[i] = place.Candidate{
			ID:         i,
			FreeCores:  rng.Intn(coresPerNode + 1),
			FreePages:  rng.Intn(pagesPerNode + 1),
			TotalCores: coresPerNode,
			TotalPages: pagesPerNode,
			Load:       rng.Intn(4),
			Tier:       rng.Intn(4), // 0 = incompatible
			Healthy:    rng.Intn(8) != 0,
			Accepts:    rng.Intn(8) != 0,
		}
	}
	return cands
}

func randomRequest(rng *rand.Rand) place.Request {
	return place.Request{Cores: 1 + rng.Intn(coresPerNode), Pages: 1 + rng.Intn(pagesPerNode)}
}

// checkFeasibleOnly: whatever the scoring stage or an extender prefers, the
// returned candidate must pass every predicate — a predicate-rejected target
// is never placed on.
func checkFeasibleOnly(t *testing.T, p *place.Policy) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		cands := randomCandidates(rng, 1+rng.Intn(12))
		r := randomRequest(rng)
		got := p.Place(r, cands)
		if got == -1 {
			// A refusal is only honest if nothing was feasible OR the policy
			// is allowed to refuse (extenders may veto, but the built-ins
			// never do); verify refusals against the predicate chain.
			continue
		}
		found := false
		for _, c := range cands {
			if c.ID != got {
				continue
			}
			found = true
			if !p.Feasible(r, c) {
				t.Fatalf("trial %d: placed request %+v on predicate-rejected candidate %+v", trial, r, c)
			}
		}
		if !found {
			t.Fatalf("trial %d: Place returned %d, not a candidate ID", trial, got)
		}
	}
}

// checkPermutationInvariant: the choice is keyed by model identity (ID), so
// reordering the candidate slice must never change it.
func checkPermutationInvariant(t *testing.T, p *place.Policy) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 500; trial++ {
		cands := randomCandidates(rng, 2+rng.Intn(10))
		r := randomRequest(rng)
		want := p.Place(r, cands)
		for perm := 0; perm < 4; perm++ {
			shuffled := append([]place.Candidate(nil), cands...)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			if got := p.Place(r, shuffled); got != want {
				t.Fatalf("trial %d: permutation changed the choice: %d vs %d", trial, got, want)
			}
		}
	}
}

// checkRejectsUnhealthy: dead or stalled targets are never placement targets,
// even when they are the only capacity in the fleet.
func checkRejectsUnhealthy(t *testing.T, p *place.Policy) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		cands := randomCandidates(rng, 1+rng.Intn(8))
		for i := range cands {
			// Ample resources, but dead.
			cands[i].FreeCores = coresPerNode
			cands[i].FreePages = pagesPerNode
			cands[i].Healthy = false
		}
		if got := p.Place(randomRequest(rng), cands); got != -1 {
			t.Fatalf("trial %d: placed on an all-unhealthy fleet (chose %d)", trial, got)
		}
	}
}

// checkDeterministic: identical inputs give identical outputs, every time —
// no hidden state, no randomness.
func checkDeterministic(t *testing.T, p *place.Policy) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		cands := randomCandidates(rng, 1+rng.Intn(10))
		r := randomRequest(rng)
		want := p.Place(r, cands)
		for rep := 0; rep < 3; rep++ {
			if got := p.Place(r, cands); got != want {
				t.Fatalf("trial %d: repeated Place diverged: %d vs %d", trial, got, want)
			}
		}
	}
}

// checkLedgerConservation drives the frontends' reserve/release round trip
// against a real place.Ledger: every policy-approved placement must be
// reservable without overdraw (the policy and the ledger share one
// overcommit rule), and after all work releases the ledger must be back at
// its initial state — redispatch cycles leak nothing.
func checkLedgerConservation(t *testing.T, p *place.Policy) {
	ledger := place.NewLedger(nodes, coresPerNode, pagesPerNode, p.Overcommit)

	type lease struct {
		node, cores, pages int
	}
	var held []lease
	rng := rand.New(rand.NewSource(5))
	for step := 0; step < 3000; step++ {
		if len(held) > 0 && rng.Intn(3) == 0 {
			// Complete a random running task (models completions and the
			// release half of a redispatch).
			i := rng.Intn(len(held))
			l := held[i]
			held = append(held[:i], held[i+1:]...)
			ledger.Release(l.node, l.cores, l.pages)
			continue
		}
		r := place.Request{Cores: 1 + rng.Intn(2), Pages: 1 + rng.Intn(pagesPerNode/2)}
		node := p.Place(r, ledger.Candidates())
		if node == -1 {
			continue
		}
		// Reserve panics on overdraw; a policy-approved placement must fit.
		ledger.Reserve(node, r.Cores, r.Pages)
		held = append(held, lease{node, r.Cores, r.Pages})
	}
	for _, l := range held {
		ledger.Release(l.node, l.cores, l.pages)
	}
	for _, c := range ledger.Candidates() {
		if c.FreeCores != coresPerNode || c.FreePages != pagesPerNode || c.Load != 0 || c.Tier != 1 {
			t.Fatalf("node %d not conserved after full release: %d cores, %d pages, %d running, tier %d (want %d, %d, 0, 1)",
				c.ID, c.FreeCores, c.FreePages, c.Load, c.Tier, coresPerNode, pagesPerNode)
		}
	}
}
