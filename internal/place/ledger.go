package place

import "fmt"

// Ledger is a fleet's resource ledger kept directly as placement candidates:
// one Candidate per identical node, debited when work is reserved on it and
// credited when the work releases. A frontend places against Candidates()
// and reserves the winner, so the picture a policy scores and the ledger
// that enforces capacity are the same slice — there is no mirror to keep in
// sync.
//
// The arena dispatcher uses it as its cached view of the fleet: it debits a
// node optimistically at dispatch time and credits it when the node's
// completion report arrives, so the ledger lags reality by the report
// latency, like a real scheduler's heartbeat-fed cache.
//
// Tier is 2 for a warm node (Load > 0) and 1 for a cold one; nodes are
// always healthy and accepting.
type Ledger struct {
	cands []Candidate

	// peakPages tracks each node's maximum page commitment, for computing
	// memory-balance effectiveness over the run's high-water marks.
	peakPages []int

	// slack is the extra pages per node an oversubscribing policy may
	// commit beyond physical capacity: free pages may go negative down to
	// -slack.
	slack int
}

// NewLedger builds a ledger of n identical nodes. The overcommit factor
// grants every node the page slack the policy's memory predicate allows
// (OvercommitSlack), so Reserve accepts exactly the placements the policy
// approves.
func NewLedger(n, coresPerNode, pagesPerNode int, overcommit float64) *Ledger {
	if n <= 0 {
		panic("place: ledger needs at least one node")
	}
	l := &Ledger{
		cands:     make([]Candidate, n),
		peakPages: make([]int, n),
		slack:     OvercommitSlack(overcommit, pagesPerNode),
	}
	for i := range l.cands {
		l.cands[i] = Candidate{
			ID:         i,
			FreeCores:  coresPerNode,
			FreePages:  pagesPerNode,
			TotalCores: coresPerNode,
			TotalPages: pagesPerNode,
			Tier:       1,
			Healthy:    true,
			Accepts:    true,
		}
	}
	return l
}

// Candidates is the ledger itself, one candidate per node in ID order.
// Callers read it (Policy.Place) and must not modify it.
func (l *Ledger) Candidates() []Candidate { return l.cands }

// Reserve debits node i for placed work. Overdrawing panics: a frontend must
// only reserve what the placement policy said fits.
func (l *Ledger) Reserve(i, cores, pages int) {
	c := &l.cands[i]
	c.FreeCores -= cores
	c.FreePages -= pages
	if c.FreeCores < 0 || c.FreePages < -l.slack {
		panic(fmt.Sprintf("place: ledger node %d overdrawn (%d cores, %d pages free)",
			i, c.FreeCores, c.FreePages))
	}
	c.Load++
	c.Tier = 2
	if used := c.TotalPages - c.FreePages; used > l.peakPages[i] {
		l.peakPages[i] = used
	}
}

// Release credits node i when its work completes. Releasing above capacity,
// or on a node with nothing running, panics.
func (l *Ledger) Release(i, cores, pages int) {
	c := &l.cands[i]
	c.FreeCores += cores
	c.FreePages += pages
	if c.FreeCores > c.TotalCores || c.FreePages > c.TotalPages {
		panic(fmt.Sprintf("place: ledger node %d released above capacity (%d cores, %d pages free)",
			i, c.FreeCores, c.FreePages))
	}
	if c.Load == 0 {
		panic(fmt.Sprintf("place: ledger node %d released with no running work", i))
	}
	c.Load--
	if c.Load == 0 {
		c.Tier = 1
	}
}

// StrandedPages reports the memory currently stranded for a request needing
// minCores: free pages sitting on nodes whose cores are too depleted to host
// it. Core-exhausted memory is the balance failure placement policies
// compete on — it is provisioned, unused, and unreachable.
func (l *Ledger) StrandedPages(minCores int) int {
	stranded := 0
	for _, c := range l.cands {
		if c.FreeCores < minCores && c.FreePages > 0 {
			stranded += c.FreePages
		}
	}
	return stranded
}

// TotalPages reports the fleet's aggregate page capacity.
func (l *Ledger) TotalPages() int { return l.cands[0].TotalPages * len(l.cands) }

// PeakUtilizations reports each node's high-water memory utilization, the
// input to MBE over a run (instantaneous snapshots at the end of a run are
// mostly idle and say nothing about balance under load).
func (l *Ledger) PeakUtilizations() []float64 {
	out := make([]float64, len(l.peakPages))
	for i, peak := range l.peakPages {
		out[i] = float64(peak) / float64(l.cands[i].TotalPages)
	}
	return out
}
