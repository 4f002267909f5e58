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
