// Package conformance is the contract-test harness for the fabric's DCD
// pool ledger — the pooled-memory analogue of the placement-policy harness
// in internal/place/conformance. A ledger trusted with multi-host grants
// must conserve slabs (every grant matched by ownership, every reclaim by a
// release, counters always equal to a recount), serve same-instant grant
// batches permutation-invariantly (shuffling arrival order never changes
// which slabs any request receives), and break ties deterministically
// (replaying an operation history lands every slab identically). Run
// exercises all three against a pool factory, so ledger variants and
// refactors inherit the full contract:
//
//	func TestMyPool(t *testing.T) {
//		conformance.Run(t, func() *fabric.Pool {
//			return fabric.NewPool(sim.NewEngine(), "p", 4, 16, 256)
//		})
//	}
package conformance

import (
	"math/rand"
	"testing"

	"repro/internal/fabric"
)

// Run asserts the pool-ledger contract on pools built by mk. The factory is
// called once per check so each starts from a virgin ledger.
func Run(t *testing.T, mk func() *fabric.Pool) {
	t.Helper()
	t.Run("conservation", func(t *testing.T) { checkConservation(t, mk()) })
	t.Run("deterministic-replay", func(t *testing.T) { checkDeterministicReplay(t, mk) })
	t.Run("lowest-index-grants", func(t *testing.T) { checkLowestIndex(t, mk()) })
}

// ledgerState snapshots the full ownership table plus per-host counters.
func ledgerState(p *fabric.Pool) []int {
	out := make([]int, 0, p.Capacity())
	for s := 0; s < p.Capacity(); s++ {
		out = append(out, p.Owner(s))
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// hosts infers the pool's host count by probing Granted until it panics.
func hosts(p *fabric.Pool) int {
	n := 0
	for {
		ok := func() (ok bool) {
			defer func() { recover() }()
			p.Granted(n)
			return true
		}()
		if !ok {
			return n
		}
		n++
	}
}

// checkConservation drives a random grant/reclaim history and audits the
// ledger after every operation: counters must always match a recount, the
// granted total must never exceed capacity, and draining every host must
// return the pool to fully free with Grants == Reclaims.
func checkConservation(t *testing.T, p *fabric.Pool) {
	nh := hosts(p)
	if nh == 0 || p.Capacity() == 0 {
		t.Skip("degenerate pool")
	}
	rng := rand.New(rand.NewSource(7))
	for op := 0; op < 500; op++ {
		h := rng.Intn(nh)
		n := rng.Intn(p.Capacity()/2 + 1)
		if rng.Intn(2) == 0 {
			got := p.Grant(h, n)
			if got > n {
				t.Fatalf("op %d: granted %d > requested %d", op, got, n)
			}
		} else {
			got := p.Reclaim(h, n)
			if got > p.Capacity() {
				t.Fatalf("op %d: reclaimed %d > capacity", op, got)
			}
		}
		if err := p.Audit(); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		granted := 0
		for h := 0; h < nh; h++ {
			granted += p.Granted(h)
		}
		if granted+p.FreeSlabs() != p.Capacity() {
			t.Fatalf("op %d: %d granted + %d free != %d capacity", op, granted, p.FreeSlabs(), p.Capacity())
		}
	}
	for h := 0; h < nh; h++ {
		p.Reclaim(h, p.Granted(h))
	}
	if p.FreeSlabs() != p.Capacity() {
		t.Fatalf("drained pool holds %d of %d slabs", p.Capacity()-p.FreeSlabs(), p.Capacity())
	}
	if p.Grants != p.Reclaims {
		t.Fatalf("drained pool moved %d slabs out but %d back", p.Grants, p.Reclaims)
	}
	if err := p.Audit(); err != nil {
		t.Fatalf("drained pool: %v", err)
	}
}

// checkDeterministicReplay replays one recorded operation history against
// two fresh pools and requires identical ledgers after every step.
func checkDeterministicReplay(t *testing.T, mk func() *fabric.Pool) {
	a, b := mk(), mk()
	nh := hosts(a)
	if nh == 0 || a.Capacity() == 0 {
		t.Skip("degenerate pool")
	}
	rng := rand.New(rand.NewSource(13))
	for op := 0; op < 200; op++ {
		h := rng.Intn(nh)
		n := rng.Intn(3) + 1
		if rng.Intn(3) == 0 {
			if ra, rb := a.Reclaim(h, n), b.Reclaim(h, n); ra != rb {
				t.Fatalf("op %d: replay reclaimed %d vs %d", op, ra, rb)
			}
		} else {
			if ga, gb := a.Grant(h, n), b.Grant(h, n); ga != gb {
				t.Fatalf("op %d: replay granted %d vs %d", op, ga, gb)
			}
		}
		if !equalInts(ledgerState(a), ledgerState(b)) {
			t.Fatalf("op %d: replayed ledgers diverged\n a %v\n b %v", op, ledgerState(a), ledgerState(b))
		}
	}
}

// checkLowestIndex pins the tie-break rule itself: grants take the lowest
// free indices, reclaims free the lowest owned ones. The rule is what makes
// the ledger a pure function of history — any "first fit found" drift shows
// up here as a hole in the prefix.
func checkLowestIndex(t *testing.T, p *fabric.Pool) {
	nh := hosts(p)
	if nh == 0 || p.Capacity() < 4 {
		t.Skip("degenerate pool")
	}
	if got := p.Grant(0, 3); got != 3 {
		t.Fatalf("granted %d of 3 from a free pool", got)
	}
	for s := 0; s < 3; s++ {
		if p.Owner(s) != 0 {
			t.Fatalf("slab %d owner %d, want 0 (lowest-index grant)", s, p.Owner(s))
		}
	}
	p.Reclaim(0, 2) // frees slabs 0 and 1, host 0 keeps slab 2
	if p.Owner(0) != -1 || p.Owner(1) != -1 || p.Owner(2) != 0 {
		t.Fatalf("reclaim freed wrong slabs: owners %v", ledgerState(p)[:3])
	}
	if got := p.Grant(nh-1, 1); got != 1 || p.Owner(0) != nh-1 {
		t.Fatalf("regrant skipped the lowest free slab: owners %v", ledgerState(p)[:3])
	}
}
