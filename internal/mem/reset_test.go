package mem

import (
	"math/rand"
	"reflect"
	"testing"
)

// churn drives ps through a random mix of faults, touches, evictions and
// reclaim scans.
func churn(ps *PageSet, rng *rand.Rand, ops int) {
	n := int32(ps.Len())
	for i := 0; i < ops; i++ {
		id := rng.Int31n(n)
		p := ps.Page(id)
		switch rng.Intn(4) {
		case 0:
			if !p.Resident {
				ps.MakeResident(id, int8(rng.Intn(2)))
			}
		case 1:
			if p.Resident {
				ps.Touch(id, rng.Intn(2) == 0)
			}
		case 2:
			if p.Resident {
				ps.Evict(id)
			}
		case 3:
			if c := ps.ReclaimCandidate(); c >= 0 {
				ps.Evict(c)
			}
		}
	}
}

// Reset after arbitrary use, shrinking and then growing past the original
// size, leaves exactly what NewPageSet builds, and the reset set then
// evolves exactly as a fresh one under the same operations.
func TestPageSetResetMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ps := NewPageSet(96)
	for _, n := range []int{96, 24, 200, 1, 64} {
		churn(ps, rng, 500)
		ps.Reset(n)
		if err := ps.Audit(); err != nil {
			t.Fatalf("n=%d: reset set fails audit: %v", n, err)
		}
		fresh := NewPageSet(n)
		if !reflect.DeepEqual(ps, fresh) {
			t.Fatalf("n=%d: reset set differs from NewPageSet", n)
		}
		seed := rng.Int63()
		churn(ps, rand.New(rand.NewSource(seed)), 300)
		churn(fresh, rand.New(rand.NewSource(seed)), 300)
		if !reflect.DeepEqual(ps, fresh) {
			t.Fatalf("n=%d: reset set diverges from a fresh one under the same ops", n)
		}
	}
}

func TestTopologyResetMatchesFresh(t *testing.T) {
	topo := NewTopology(8)
	topo.AddCXLNode(4)
	for i := 0; i < 10; i++ {
		topo.Allocate(Interleave)
	}
	topo.Reset(3)
	fresh := NewTopology(3)
	if !reflect.DeepEqual(topo.Nodes, fresh.Nodes) || topo.rr != 0 {
		t.Fatalf("reset topology %+v differs from NewTopology %+v", topo, fresh)
	}
	for _, policy := range []NUMAPolicy{Interleave, PreferRemote, BindLocal} {
		for i := 0; i < 7; i++ {
			if got, want := topo.Allocate(policy), fresh.Allocate(policy); got != want {
				t.Fatalf("%v allocation %d: reset topology picked %d, fresh %d", policy, i, got, want)
			}
		}
	}
}
