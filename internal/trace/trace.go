// Package trace implements the page trace table and the characteristic
// fusion the paper's configuration console feeds on (Fig 9a): data fragment
// ratio, page load/store ratio, hot-data segment ratio, sequential-access
// share, and the anonymous/file-backed page ratio.
//
// A Table observes a stream of page accesses (transparently to the
// application, as in the paper) and Features() fuses the synthesized
// statistics that drive backend selection and parameter adjustment.
package trace

import "slices"

// Table accumulates page-access statistics for one task. Page IDs are dense
// indices into the task's page set.
type Table struct {
	footprint int
	counts    []uint32
	// hot is Features' scratch for sorting the touched pages' counts.
	hot    []uint32
	loads  uint64
	stores uint64

	lastPage int32
	haveLast bool
	seqHits  uint64
	run      int
	maxRun   int
	totalAcc uint64
	touched  int
}

// NewTable creates a trace table for a footprint of n pages.
func NewTable(n int) *Table {
	return &Table{footprint: n, counts: make([]uint32, n), lastPage: -1}
}

// Record observes one access.
func (t *Table) Record(page int32, write bool) {
	if t.counts[page] == 0 {
		t.touched++
	}
	t.counts[page]++
	t.totalAcc++
	if write {
		t.stores++
	} else {
		t.loads++
	}
	if t.haveLast && page == t.lastPage+1 {
		t.seqHits++
		t.run++
		if t.run > t.maxRun {
			t.maxRun = t.run
		}
	} else {
		t.run = 0
	}
	t.lastPage = page
	t.haveLast = true
}

// Accesses reports the total number of recorded accesses.
func (t *Table) Accesses() uint64 { return t.totalAcc }

// Features is the fused multi-dimensional characteristic vector (Fig 9a).
type Features struct {
	// TouchedPages is the number of distinct pages accessed.
	TouchedPages int
	// AnonRatio is anonymous pages / all pages (supplied by the caller from
	// the page table; the trace itself is type-blind).
	AnonRatio float64
	// FileTrafficRatio is the measured share of *accesses* landing on
	// file-backed pages (the first footprint−anon pages of the address
	// space). Unlike AnonRatio, this tracks where the traffic actually
	// goes — a page-type ratio of 0.5 can carry anywhere between 0 and
	// 100% file traffic depending on the phase.
	FileTrafficRatio float64
	// LoadRatio is loads / (loads+stores).
	LoadRatio float64
	// SeqRatio is the fraction of accesses continuing an ascending run.
	SeqRatio float64
	// MaxSeqRunPages is the longest ascending run observed, the signal the
	// paper uses for I/O-width benefit (Fig 11).
	MaxSeqRunPages int
	// FragmentRatio is segments/touched-pages over the touched-address-space
	// segment structure: 1.0 means every touched page is isolated, →0 means
	// one contiguous extent (Fig 10).
	FragmentRatio float64
	// HotRatio is the smallest fraction of the footprint that absorbs 80% of
	// accesses — the minimum hot-data size driving local-memory sizing.
	HotRatio float64
}

// hotCoverage is the access share the hot set must cover.
const hotCoverage = 0.8

// Features fuses the table's statistics. anonPages is the count of anonymous
// pages in the task's page set (the table does not see page types).
func (t *Table) Features(anonPages int) Features {
	f := Features{
		TouchedPages: t.touched,
		AnonRatio:    float64(anonPages) / float64(t.footprint),
	}
	if t.loads+t.stores > 0 {
		f.LoadRatio = float64(t.loads) / float64(t.loads+t.stores)
	}
	if t.totalAcc > 0 {
		fileBoundary := t.footprint - anonPages
		if fileBoundary > 0 && fileBoundary <= len(t.counts) {
			var fileAcc uint64
			for _, c := range t.counts[:fileBoundary] {
				fileAcc += uint64(c)
			}
			f.FileTrafficRatio = float64(fileAcc) / float64(t.totalAcc)
		}
	}
	if t.totalAcc > 1 {
		f.SeqRatio = float64(t.seqHits) / float64(t.totalAcc-1)
	}
	f.MaxSeqRunPages = t.maxRun

	// Fragment ratio: count maximal runs of touched pages.
	segments := 0
	inSeg := false
	for _, c := range t.counts {
		if c > 0 && !inSeg {
			segments++
			inSeg = true
		} else if c == 0 {
			inSeg = false
		}
	}
	if t.touched > 0 {
		f.FragmentRatio = float64(segments) / float64(t.touched)
	}

	// Hot ratio: smallest page count covering hotCoverage of accesses,
	// taking the hottest pages first (the end of the ascending sort).
	if t.totalAcc > 0 {
		t.hot = slices.Grow(t.hot[:0], t.touched)
		for _, c := range t.counts {
			if c > 0 {
				t.hot = append(t.hot, c)
			}
		}
		slices.Sort(t.hot)
		need := uint64(float64(t.totalAcc) * hotCoverage)
		var acc uint64
		pages := 0
		for i := len(t.hot) - 1; i >= 0 && acc < need; i-- {
			acc += uint64(t.hot[i])
			pages++
		}
		f.HotRatio = float64(pages) / float64(t.footprint)
	}
	return f
}

// Reset clears all recorded state, keeping the footprint.
func (t *Table) Reset() { t.Resize(t.footprint) }

// Resize clears all recorded state and sets the footprint to n pages. It
// reuses the count array and the sort scratch, so a table resized to at
// most the largest footprint it has held allocates nothing.
func (t *Table) Resize(n int) {
	if cap(t.counts) < n {
		t.counts = make([]uint32, n)
	} else {
		t.counts = t.counts[:n]
		clear(t.counts)
	}
	*t = Table{footprint: n, counts: t.counts, hot: t.hot, lastPage: -1}
}
