package place

import (
	"reflect"
	"testing"
)

func TestLedgerWorstFitSpreads(t *testing.T) {
	l := NewLedger(3, 4, 100, 1)
	p := Builtin("worst-fit")
	r := Request{Cores: 1, Pages: 10}
	// Worst-fit on cores: placements rotate while capacity is equal.
	got := []int{}
	for i := 0; i < 3; i++ {
		n := p.Place(r, l.Candidates())
		got = append(got, n)
		l.Reserve(n, r.Cores, r.Pages)
	}
	if want := []int{0, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("placements %v, want %v", got, want)
	}
	// Node 1 freed first becomes the emptiest and wins the next placement.
	l.Release(1, r.Cores, r.Pages)
	if n := p.Place(r, l.Candidates()); n != 1 {
		t.Fatalf("placed on %d, want the emptiest node 1", n)
	}
}

func TestLedgerWorstFitRespectsLimits(t *testing.T) {
	l := NewLedger(2, 2, 100, 1)
	p := Builtin("worst-fit")
	if n := p.Place(Request{Cores: 3, Pages: 10}, l.Candidates()); n != -1 {
		t.Fatalf("placed a 3-core request on 2-core nodes (node %d)", n)
	}
	if n := p.Place(Request{Cores: 1, Pages: 101}, l.Candidates()); n != -1 {
		t.Fatalf("placed a 101-page request on 100-page nodes (node %d)", n)
	}
	l.Reserve(0, 2, 100)
	l.Reserve(1, 2, 100)
	if n := p.Place(Request{Cores: 1, Pages: 1}, l.Candidates()); n != -1 {
		t.Fatalf("placed on a full fleet (node %d)", n)
	}
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: no panic", name)
		}
	}()
	fn()
}

func TestLedgerAccountingPanics(t *testing.T) {
	mustPanic(t, "overdraw", func() {
		l := NewLedger(1, 2, 10, 1)
		l.Reserve(0, 3, 5)
	})
	mustPanic(t, "over-release", func() {
		l := NewLedger(1, 2, 10, 1)
		l.Release(0, 1, 1)
	})
	mustPanic(t, "release with nothing running", func() {
		l := NewLedger(1, 2, 10, 1)
		l.Reserve(0, 1, 5)
		l.Release(0, 1, 5)
		l.Release(0, 0, 0)
	})
	mustPanic(t, "empty ledger", func() { NewLedger(0, 1, 1, 1) })
}

// TestLedgerOvercommitBoundary pins the shared slack rule: an oversub:1.25
// policy approves a placement that drives free pages to exactly -slack, the
// ledger accepts it, and one page more overdraws.
func TestLedgerOvercommitBoundary(t *testing.T) {
	p := Builtin("oversub:1.25")
	l := NewLedger(1, 4, 100, p.Overcommit)
	slack := OvercommitSlack(p.Overcommit, 100)
	if slack != 25 {
		t.Fatalf("slack %d, want 25", slack)
	}
	if n := p.Place(Request{Cores: 1, Pages: 100 + slack + 1}, l.Candidates()); n != -1 {
		t.Fatalf("policy approved a placement past the slack (node %d)", n)
	}
	r := Request{Cores: 1, Pages: 100 + slack}
	n := p.Place(r, l.Candidates())
	if n != 0 {
		t.Fatalf("policy refused a placement exactly at the slack (node %d)", n)
	}
	l.Reserve(n, r.Cores, r.Pages)
	c := l.Candidates()[0]
	if c.FreePages != -slack || c.Load != 1 || c.Tier != 2 {
		t.Fatalf("after reserve: %+v, want %d free pages, load 1, tier 2", c, -slack)
	}
	if n := p.Place(Request{Cores: 1, Pages: 1}, l.Candidates()); n != -1 {
		t.Fatalf("policy approved a page past the slack (node %d)", n)
	}
	mustPanic(t, "one page past the slack", func() { l.Reserve(0, 0, 1) })
}

func TestLedgerStrandedAndPeaks(t *testing.T) {
	l := NewLedger(2, 4, 100, 1)
	if l.TotalPages() != 200 {
		t.Fatalf("TotalPages = %d, want 200", l.TotalPages())
	}
	// Node 0 runs out of cores with 70 pages free: stranded for any request
	// needing a core, but not for one needing none.
	l.Reserve(0, 4, 30)
	if got := l.StrandedPages(1); got != 70 {
		t.Fatalf("stranded for 1 core = %d, want 70", got)
	}
	if got := l.StrandedPages(0); got != 0 {
		t.Fatalf("stranded for 0 cores = %d, want 0", got)
	}
	l.Reserve(1, 1, 50)
	if got := l.StrandedPages(4); got != 120 {
		t.Fatalf("stranded for 4 cores = %d, want 120", got)
	}
	// Peaks survive release.
	l.Release(0, 4, 30)
	l.Reserve(0, 1, 60)
	l.Release(0, 1, 60)
	l.Release(1, 1, 50)
	if p := l.PeakUtilizations(); p[0] != 0.6 || p[1] != 0.5 {
		t.Fatalf("peaks %v, want [0.6 0.5]", p)
	}
	for _, c := range l.Candidates() {
		if c.FreeCores != 4 || c.FreePages != 100 || c.Load != 0 || c.Tier != 1 {
			t.Fatalf("node %d not idle after full release: %+v", c.ID, c)
		}
	}
	if got := l.StrandedPages(1); got != 0 {
		t.Fatalf("stranded on an idle fleet = %d", got)
	}
}
