package workload

import (
	"math/rand"
)

// Access is one memory reference: a physical page index and a load/store bit.
type Access struct {
	Page  int32
	Write bool
}

// Stream generates a workload's page-access sequence deterministically from
// a seed. The sequence has two phases:
//
//  1. an init sweep touching every mapped page once in address order
//     (allocation writes for anonymous pages, file reads for page cache),
//     and
//  2. the main phase mixing sequential runs, hot-set hits, and uniform
//     accesses per the Spec's knobs.
type Stream struct {
	spec Spec
	rng  *rand.Rand

	// mapping is logical→physical page translation. The workload's touched
	// address space is a set of contiguous physical segments with gaps
	// between them; segment length controls the fragment ratio.
	mapping []int32

	// hotStart/hotLen delimit the contiguous hot region of logical pages
	// (hotLen == 0 means no hot concentration).
	hotStart, hotLen int32

	phase   int // 0 = init sweep, 1 = main
	initPos int
	emitted int
	runLeft int
	cursor  int // logical position of the current sequential run

	// runStartProb is derived from SeqShare so that the *fraction* of
	// sequential accesses (not of run starts) matches the spec.
	runStartProb float64
}

// NewStream builds the stream for spec with the given seed.
func NewStream(spec Spec, seed int64) *Stream {
	s := &Stream{}
	s.Reset(spec, seed)
	return s
}

// Reset returns the stream to the state NewStream(spec, seed) builds. It
// re-seeds the existing generator, which then yields the same sequence as a
// fresh one, and reuses the mapping's backing array.
func (s *Stream) Reset(spec Spec, seed int64) {
	rng := s.rng
	if rng == nil {
		rng = rand.New(rand.NewSource(seed))
	} else {
		rng.Seed(seed)
	}
	*s = Stream{spec: spec, rng: rng, mapping: s.mapping[:0]}
	s.buildMapping()
	s.buildHotSet()
	// A run of mean length R contributes R-1 sequential accesses out of R;
	// a non-run access contributes one non-sequential access. Starting runs
	// with probability p at each decision point yields sequential fraction
	// S = p(R-1) / (pR + 1 - p); solving for p:
	S := spec.SeqShare
	R := float64(spec.RunLen)
	if S > 0 && R > 1 && S < 1 {
		p := S / ((R - 1) * (1 - S))
		if p > 1 {
			p = 1
		}
		s.runStartProb = p
	} else if S >= 1 {
		s.runStartProb = 1
	}
}

// buildMapping lays out touched segments across the physical footprint.
func (s *Stream) buildMapping() {
	footprint := s.spec.FootprintPages
	target := int(float64(footprint) * s.spec.Coverage)
	if target < 1 {
		target = 1
	}
	segLen := s.spec.SegmentLen
	if segLen < 1 {
		segLen = 1
	}
	// Gap sized so segments spread over the whole footprint.
	gapPer := 0.0
	if s.spec.Coverage < 1 {
		gapPer = float64(segLen) * (1 - s.spec.Coverage) / s.spec.Coverage
	}
	if cap(s.mapping) < target {
		s.mapping = make([]int32, 0, target)
	}
	pos := 0
	for len(s.mapping) < target && pos < footprint {
		// Jitter segment length ±25% for irregularity.
		l := segLen
		if segLen > 3 {
			l = segLen - segLen/4 + s.rng.Intn(segLen/2+1)
		}
		for i := 0; i < l && len(s.mapping) < target && pos < footprint; i++ {
			s.mapping = append(s.mapping, int32(pos))
			pos++
		}
		gap := int(gapPer)
		if gapPer > 0 && s.rng.Float64() < gapPer-float64(gap) {
			gap++
		}
		pos += gap
	}
}

// buildHotSet designates a contiguous hot region of the logical space (hot
// structures in real programs — frontier arrays, model weights, cluster
// centroids — are contiguous allocations). The region is placed after the
// file-backed prefix so hot traffic exercises the anonymous swap path.
func (s *Stream) buildHotSet() {
	if s.spec.HotShare >= 1 || s.spec.HotShare <= 0 || s.spec.HotProb <= 0 {
		return
	}
	n := int(float64(len(s.mapping)) * s.spec.HotShare)
	if n < 1 {
		n = 1
	}
	start := int(float64(len(s.mapping)) * (1 - s.spec.AnonFraction))
	if start+n > len(s.mapping) {
		start = len(s.mapping) - n
	}
	if start < 0 {
		start = 0
	}
	s.hotStart, s.hotLen = int32(start), int32(n)
}

// hotLogical draws a uniform logical index from the hot region.
func (s *Stream) hotLogical() int32 {
	return s.hotStart + int32(s.rng.Intn(int(s.hotLen)))
}

// SkipInit suppresses the init sweep: worker threads of a multi-threaded
// task share the address space that thread 0 allocates.
func (s *Stream) SkipInit() { s.phase = 1 }

// SetMainAccesses overrides the main-phase length (used to divide a spec's
// access budget across threads).
func (s *Stream) SetMainAccesses(n int) { s.spec.MainAccesses = n }

// MappedPages reports the number of distinct pages the stream can touch.
func (s *Stream) MappedPages() int { return len(s.mapping) }

// Next produces the next access, reporting false when the stream ends.
func (s *Stream) Next() (Access, bool) {
	if s.phase == 0 {
		if s.initPos < len(s.mapping) {
			page := s.mapping[s.initPos]
			s.initPos++
			// Anonymous pages are allocated (written); file-backed pages —
			// the first (1-AnonFraction) of the footprint, matching the task
			// layer's SetType — are read into the page cache.
			fileBoundary := int32(float64(s.spec.FootprintPages) * (1 - s.spec.AnonFraction))
			return Access{Page: page, Write: page >= fileBoundary}, true
		}
		s.phase = 1
	}
	if s.emitted >= s.spec.MainAccesses {
		return Access{}, false
	}
	s.emitted++
	write := s.rng.Float64() < s.spec.WriteFraction

	if s.runLeft > 0 {
		s.runLeft--
		s.cursor++
		if s.cursor >= len(s.mapping) {
			s.cursor = 0
		}
		return Access{Page: s.mapping[s.cursor], Write: write}, true
	}
	if s.rng.Float64() < s.runStartProb {
		// Start a new sequential run of geometric length around RunLen.
		// Runs start inside the hot region with HotProb, like random
		// accesses: hot structures are scanned as well as poked.
		runLen := 1
		if s.spec.RunLen > 1 {
			runLen = 1 + s.rng.Intn(2*s.spec.RunLen)
		}
		s.runLeft = runLen - 1
		if s.hotLen > 0 && s.rng.Float64() < s.spec.HotProb {
			s.cursor = int(s.hotLogical())
		} else {
			s.cursor = s.rng.Intn(len(s.mapping))
		}
		return Access{Page: s.mapping[s.cursor], Write: write}, true
	}
	// Random access: hot region with HotProb, else uniform over the
	// anonymous region. Pointer-chasing and hash probes land in working
	// structures (heap); file-backed input is only crossed by sequential
	// scans, matching how analytics and inference consume their inputs.
	var logical int32
	if s.hotLen > 0 && s.rng.Float64() < s.spec.HotProb {
		logical = s.hotLogical()
	} else {
		anonStart := int32(float64(len(s.mapping)) * (1 - s.spec.AnonFraction))
		span := int32(len(s.mapping)) - anonStart
		if span < 1 {
			anonStart, span = 0, int32(len(s.mapping))
		}
		logical = anonStart + int32(s.rng.Intn(int(span)))
	}
	s.cursor = int(logical)
	return Access{Page: s.mapping[logical], Write: write}, true
}
