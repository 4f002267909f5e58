// Package core implements xDM's intelligence: the implicit far-memory
// switching strategy (MEI-ordered backend selection, Sec IV-A2) and the
// smart configuration console (characteristic fusion → multi-dimensional
// parameter adjustment, Sec IV-B).
//
// The inputs are page-trace features (package trace) and a catalog of
// available backend options; the outputs are a Decision: which backend to
// swap to, at what data granularity, with what I/O width, local-memory
// ratio, and NUMA policy. The mechanisms that *apply* decisions live in
// internal/vm (switchable swapper) and internal/cluster (Algorithm 1).
package core

import (
	"math"
	"slices"
	"strings"

	"repro/internal/device"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/units"
)

// BackendOption describes one candidate far-memory backend to the decision
// logic. Build one per attachable device with OptionFromSpec.
type BackendOption struct {
	Name             string
	Kind             device.Kind
	Bandwidth        units.BytesPerSec
	ChannelBandwidth units.BytesPerSec
	OpLatency        sim.Duration
	RandomPenalty    sim.Duration
	CostPerGB        float64
	MaxWidth         int
	Available        bool
}

// OptionFromSpec derives a BackendOption from a device spec.
func OptionFromSpec(s device.Spec) BackendOption {
	return BackendOption{
		Name:             s.Name,
		Kind:             s.Kind,
		Bandwidth:        s.Bandwidth,
		ChannelBandwidth: s.ChannelBandwidth,
		OpLatency:        s.ReadLatency,
		RandomPenalty:    s.RandomPenalty,
		CostPerGB:        s.CostPerGB,
		MaxWidth:         16,
		Available:        true,
	}
}

// Decision is the console's tuning for one application on its backend.
type Decision struct {
	// GranularityPages is the tuned swap transfer unit (1..512 pages,
	// i.e. 4 KiB .. 2 MiB average page size via THP).
	GranularityPages int
	// Width is the tuned I/O width (channels / event queues).
	Width int
	// NUMA is the local placement policy.
	NUMA mem.NUMAPolicy
}

// Granularity candidates: power-of-two page counts from 4 KiB to 2 MiB.
var granularityCandidates = []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}

// Width candidates for the I/O width knob.
var widthCandidates = []int{1, 2, 4, 8, 16}

// perChannelOverhead mirrors the swap layer's channel management cost.
func perChannelOverhead(k device.Kind) sim.Duration {
	switch k {
	case device.SSD, device.HDD:
		return 2500 * sim.Nanosecond
	case device.RDMA, device.DPU:
		return 180 * sim.Nanosecond
	default:
		return 60 * sim.Nanosecond
	}
}

// usefulPages predicts how many of a g-page extent the task will consume
// before eviction: 1 demanded page plus prefetched pages useful in
// proportion to the sequential share, discounted by fragmentation (an
// extent spanning a segment boundary prefetches unmapped/cold data).
func usefulPages(f trace.Features, g int) float64 {
	if g <= 1 {
		return 1
	}
	segLen := math.MaxFloat64
	if f.FragmentRatio > 0 {
		segLen = 1 / f.FragmentRatio
	}
	contiguity := 1.0
	if segLen < math.MaxFloat64 {
		contiguity = segLen / (segLen + float64(g)/2)
	}
	u := f.SeqRatio * contiguity
	return 1 + float64(g-1)*u
}

// refaultRisk is the modeled probability that a page displaced by a wasted
// prefetch is demanded again and must be re-fetched. It internalizes the
// I/O-amplification externality into the granularity choice.
const refaultRisk = 0.35

// PredictPageCost estimates the amortized swap-in cost per *useful* page on
// opt with granularity g and width w, including the displacement cost of
// wasted prefetches. This is the console's cost model; the experiments
// validate it against simulated outcomes.
func PredictPageCost(opt BackendOption, f trace.Features, g, w int) sim.Duration {
	if g < 1 {
		g = 1
	}
	if w < 1 {
		w = 1
	}
	bw := float64(opt.Bandwidth)
	if opt.ChannelBandwidth > 0 {
		cbw := float64(opt.ChannelBandwidth) * float64(w)
		if cbw < bw {
			bw = cbw
		}
	}
	transfer := sim.DurationOf(float64(int64(g)*units.PageSize) / bw)
	op := opt.OpLatency + sim.Duration(w-1)*perChannelOverhead(opt.Kind)
	// Random-access penalty applies to the share of ops that do not continue
	// a sequential run.
	op += sim.Duration(float64(opt.RandomPenalty) * (1 - f.SeqRatio))
	useful := usefulPages(f, g)

	// Each wasted prefetched page displaces a resident page that may refault
	// at single-page demand cost.
	wasted := float64(g) - useful
	singleBW := float64(opt.Bandwidth)
	if opt.ChannelBandwidth > 0 && float64(opt.ChannelBandwidth) < singleBW {
		singleBW = float64(opt.ChannelBandwidth)
	}
	demand4K := float64(opt.OpLatency) + float64(sim.DurationOf(float64(units.PageSize)/singleBW))
	amplification := wasted * refaultRisk * demand4K

	return sim.Duration((float64(op+transfer) + amplification) / useful)
}

// TuneTransfer picks the (granularity, width) pair minimizing predicted
// amortized cost for opt under features f, with no local-memory budget
// constraint. Prefer TuneTransferBudget when the budget is known.
func TuneTransfer(opt BackendOption, f trace.Features) (g, w int) {
	return TuneTransferBudget(opt, f, math.MaxInt32)
}

// TuneTransferBudget is TuneTransfer constrained by the task's local-memory
// budget in pages: an extent must stay a small fraction of local memory or
// every prefetch evicts data about to be used (thrashing). The cap is
// budget/16, so at most ~6% of local memory turns over per fault.
func TuneTransferBudget(opt BackendOption, f trace.Features, budgetPages int) (g, w int) {
	maxG := budgetPages / 16
	if maxG < 1 {
		maxG = 1
	}
	best := sim.Duration(math.MaxInt64)
	g, w = 1, 1
	maxW := opt.MaxWidth
	if maxW < 1 {
		maxW = 1
	}
	for _, gc := range granularityCandidates {
		if gc > maxG {
			break
		}
		for _, wc := range widthCandidates {
			if wc > maxW {
				continue
			}
			c := PredictPageCost(opt, f, gc, wc)
			if c < best {
				best, g, w = c, gc, wc
			}
		}
	}
	return g, w
}

// NormalizedCost maps $/GB-class hardware cost onto the MEI denominator.
// Provisioned far-memory cost grows far slower than raw $/GB (RDMA far
// memory borrows idle DRAM already paid for), so a log scale anchored at
// SSD cost = 1 is used; the floor keeps disk-class media from being scored
// as nearly free (their operational cost is not).
func NormalizedCost(costPerGB float64) float64 {
	const ssdCost = 0.10
	c := 1 + math.Log10(costPerGB/ssdCost)
	if c < 0.8 {
		c = 0.8
	}
	return c
}

// fileServiceCost is the per-miss cost of file refaults, which always go to
// node-local storage regardless of the swap backend. Random file misses pay
// the device operation, readahead amplification, and queueing behind
// concurrent threads, which is why this is several times a bare SSD
// operation.
const fileServiceCost = 250 * sim.Microsecond

// localAccessCost is the DRAM latency added per resident access.
const localAccessCost = 80 * sim.Nanosecond

// tunedPageCost is the predicted amortized swap-in cost per useful page on
// opt at the transfer parameters TuneTransfer picks for f. It does not
// depend on the far ratio, so a caller comparing ratios computes it once.
func tunedPageCost(opt BackendOption, f trace.Features) sim.Duration {
	g, w := TuneTransfer(opt, f)
	return PredictPageCost(opt, f, g, w)
}

// predictRuntimeShare estimates the relative per-access time of running f
// with far ratio farRatio on a backend whose tuned page cost is pageCost,
// combining compute, the anonymous swap share, and the backend-independent
// file share. Used to compare backends, so constant factors cancel.
func predictRuntimeShare(pageCost sim.Duration, f trace.Features, computePerAccess sim.Duration, farRatio float64) float64 {
	// Miss probability per access: the share of accesses falling outside
	// what local memory holds (hotHitShare already accounts for the local
	// size). Sequential sweeps are harder on the LRU than random traffic —
	// a cyclic sweep refaults everything beyond local memory — so the
	// sequential share carries a thrash boost.
	coldShare := 1 - hotHitShare(f, 1-farRatio)
	missRate := coldShare * (1 + 0.5*f.SeqRatio)
	if missRate > 1 {
		missRate = 1
	}
	// Split misses by where the traffic actually lands (measured), not by
	// the page-type ratio: a serving phase can be 100% anonymous over a
	// half-file address space.
	fileShare := f.FileTrafficRatio
	anonMiss := missRate * (1 - fileShare)
	fileMiss := missRate * fileShare
	return float64(computePerAccess) + float64(localAccessCost) +
		anonMiss*float64(pageCost) +
		fileMiss*float64(fileServiceCost)
}

// hotHitShare estimates the share of accesses served by a local share of
// localRatio given the measured hot ratio: if local memory covers the hot
// set, 80% of accesses (the hot coverage) hit it; extra local memory
// absorbs the uniform remainder proportionally.
func hotHitShare(f trace.Features, localRatio float64) float64 {
	if f.HotRatio <= 0 {
		return localRatio
	}
	if localRatio >= 1 {
		return 1
	}
	if localRatio <= f.HotRatio {
		return 0.8 * localRatio / f.HotRatio
	}
	coldSpan := 1 - f.HotRatio
	if coldSpan <= 0 {
		return 1
	}
	return 0.8 + 0.2*(localRatio-f.HotRatio)/coldSpan
}

// meiFarRatio is the far-memory share SelectBackend ranks backends at: half
// the footprint offloaded.
const meiFarRatio = 0.5

// RankedBackend is one backend's place in an MEI ranking.
type RankedBackend struct {
	Name string
	MEI  float64
}

// SelectBackend computes MEI for every available option and returns them
// ranked in dst's storage: higher MEI first, ties to the lower name. MEI(b)
// = (runtime improvement over the slowest available option) / normalized
// device cost — the paper's "memory effectiveness improvement" metric, with
// meiFarRatio of the footprint far. Option names must be unique.
func SelectBackend(dst []RankedBackend, opts []BackendOption, f trace.Features, computePerAccess sim.Duration) []RankedBackend {
	dst = dst[:0]
	worst := 0.0
	for _, o := range opts {
		if !o.Available {
			continue
		}
		s := predictRuntimeShare(tunedPageCost(o, f), f, computePerAccess, meiFarRatio)
		if s > worst {
			worst = s
		}
		dst = append(dst, RankedBackend{Name: o.Name, MEI: s}) // the share, until worst is known
	}
	i := 0
	for _, o := range opts {
		if o.Available {
			improvement := worst / dst[i].MEI
			dst[i].MEI = improvement / NormalizedCost(o.CostPerGB)
			i++
		}
	}
	slices.SortFunc(dst, func(a, b RankedBackend) int {
		switch {
		case a.MEI > b.MEI:
			return -1
		case a.MEI < b.MEI:
			return 1
		}
		return strings.Compare(a.Name, b.Name)
	})
	return dst
}

// FailoverTarget extends MEI-based selection into failure-aware switching:
// given the MEI ranking, the backend being demoted, and a health predicate,
// it returns the best-ranked healthy alternative. The demoted backend is
// excluded even if healthy reports it alive — demotion is the caller's
// decision and this function must not argue with it. ok is false when no
// healthy alternative exists (the caller keeps limping on the current
// backend rather than switching to nothing).
func FailoverTarget(ranked []RankedBackend, demoted string, healthy func(name string) bool) (name string, ok bool) {
	for _, r := range ranked {
		if r.Name == demoted {
			continue
		}
		if healthy == nil || healthy(r.Name) {
			return r.Name, true
		}
	}
	return "", false
}

// sloMargin discounts the SLO budget the console plans against: the
// analytic model omits queueing, reclaim CPU, and co-location contention,
// so only this fraction of the slack is spent at planning time.
const sloMargin = 0.6

// MinLocalRatio estimates the smallest local-memory share keeping predicted
// runtime within slo × the no-swap runtime (slo >= 1). It returns a value
// in [0.1, 1]. Only sloMargin of the SLO slack is planned away, leaving
// headroom for effects outside the model.
func MinLocalRatio(opt BackendOption, f trace.Features, computePerAccess sim.Duration, slo float64) float64 {
	if slo < 1 {
		slo = 1
	}
	budget := 1 + (slo-1)*sloMargin
	pageCost := tunedPageCost(opt, f)
	base := predictRuntimeShare(pageCost, f, computePerAccess, 0)
	for local := 0.1; local < 1.0; local += 0.05 {
		r := predictRuntimeShare(pageCost, f, computePerAccess, 1-local)
		if r <= base*budget {
			return local
		}
	}
	return 1
}

// ChooseNUMA picks the placement policy: memory-latency-sensitive tasks
// (low compute per access, high sequential locality) are bound to the local
// socket; insensitive tasks can spread for load balance (Fig 12).
func ChooseNUMA(f trace.Features, computePerAccess sim.Duration) mem.NUMAPolicy {
	if computePerAccess >= 200*sim.Nanosecond {
		// Compute-bound: a remote hop is noise; allow balancing.
		return mem.Interleave
	}
	return mem.BindLocal
}
