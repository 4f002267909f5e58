package workload

import "fmt"

// AccessSource produces a page-access sequence. *Stream implements it; so
// does PhasedStream, which chains phases with different behaviour over the
// same address space — the "workload behaviors often change during runtime"
// scenario motivating xDM's dynamic switching.
type AccessSource interface {
	Next() (Access, bool)
}

// PhasedStream runs several specs back to back over one footprint. Only the
// first phase performs the allocation sweep; later phases re-access the
// same pages under their own pattern.
type PhasedStream struct {
	phases []*Stream
	cur    int
}

// NewPhasedStream builds a phased source. All specs must share the same
// FootprintPages and AnonFraction (they describe phases of one process, not
// different processes).
func NewPhasedStream(specs []Spec, seed int64) *PhasedStream {
	if len(specs) == 0 {
		panic("workload: phased stream needs at least one phase")
	}
	p := &PhasedStream{}
	for i, s := range specs {
		if s.FootprintPages != specs[0].FootprintPages {
			panic(fmt.Sprintf("workload: phase %d footprint %d != %d", i,
				s.FootprintPages, specs[0].FootprintPages))
		}
		if s.AnonFraction != specs[0].AnonFraction {
			panic(fmt.Sprintf("workload: phase %d anon fraction %v != %v", i,
				s.AnonFraction, specs[0].AnonFraction))
		}
		st := NewStream(s, seed+int64(i)*104729)
		if i > 0 {
			st.SkipInit()
		}
		p.phases = append(p.phases, st)
	}
	return p
}

// Next implements AccessSource.
func (p *PhasedStream) Next() (Access, bool) {
	for p.cur < len(p.phases) {
		if a, ok := p.phases[p.cur].Next(); ok {
			return a, true
		}
		p.cur++
	}
	return Access{}, false
}

var _ AccessSource = (*Stream)(nil)
var _ AccessSource = (*PhasedStream)(nil)

// SkipInit suppresses the allocation sweep of the first phase (worker
// threads of a multi-threaded task share thread 0's allocations).
func (p *PhasedStream) SkipInit() { p.phases[0].SkipInit() }
