package mem

// Cgroup models the memory.high mechanism the paper uses to cap a task's
// local memory and force data offloading: when a page set's resident count
// exceeds the limit, reclaim must run until it fits again.
type Cgroup struct {
	// LimitPages is the resident-page ceiling (memory.high / 4 KiB).
	LimitPages int
}

// NewCgroupRatio builds a cgroup that keeps localRatio of the page set's
// footprint resident. localRatio is clamped to [0.05, 1]; the paper's "far
// memory ratio" knob spans 0–0.9 (so local ratio 0.1–1.0).
func NewCgroupRatio(ps *PageSet, localRatio float64) *Cgroup {
	if localRatio < 0.05 {
		localRatio = 0.05
	}
	if localRatio > 1 {
		localRatio = 1
	}
	limit := int(float64(ps.Len()) * localRatio)
	if limit < 1 {
		limit = 1
	}
	return &Cgroup{LimitPages: limit}
}

// OverLimit reports how many pages must be reclaimed from ps to get back
// under the limit (0 if within the limit).
func (c *Cgroup) OverLimit(ps *PageSet) int {
	over := ps.Resident() - c.LimitPages
	if over < 0 {
		return 0
	}
	return over
}

// NeedsReclaimBeforeFault reports how many pages must be evicted before one
// more page can become resident.
func (c *Cgroup) NeedsReclaimBeforeFault(ps *PageSet) int {
	over := ps.Resident() + 1 - c.LimitPages
	if over < 0 {
		return 0
	}
	return over
}

// FarRatio reports the fraction of the page set that cannot be resident —
// the paper's "far memory ratio" for this task.
func (c *Cgroup) FarRatio(ps *PageSet) float64 {
	if ps.Len() == 0 {
		return 0
	}
	far := ps.Len() - c.LimitPages
	if far < 0 {
		return 0
	}
	return float64(far) / float64(ps.Len())
}
