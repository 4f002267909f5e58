package cluster

import (
	"sort"

	"repro/internal/clustertrace"
	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/units"
)

// BalanceSimConfig parameterizes a cluster-scale memory-balancing run: the
// executable version of Fig 19. Machines above the beta utilization
// threshold stream their excess pages over the cluster network into the
// headroom of machines below alpha, through per-machine NICs and a shared
// switch — so the rebalancing time and achievable aggregate bandwidth come
// out of the same fluid-flow model as everything else.
type BalanceSimConfig struct {
	Machines        int
	PagesPerMachine int
	Profile         clustertrace.Profile
	Alpha, Beta     float64
	Seed            int64
}

// Each machine's far-memory NIC is the testbed's 10 GB/s ConnectX-5; the
// cluster switch fabric carries 25 GB/s per rack of contention.
const (
	balanceNICBandwidth    units.BytesPerSec = 10e9
	balanceSwitchBandwidth units.BytesPerSec = 25e9
)

// BalanceSimResult reports the outcome.
type BalanceSimResult struct {
	Before, After  []float64
	MBEBefore      float64
	MBEAfter       float64
	Improvement    float64
	PagesMoved     uint64
	RebalanceTime  sim.Duration
	AggregateGBps  float64
	DonorMachines  int
	SourceMachines int
}

// RunBalanceSim executes the balancing: greedy matching of the hottest
// machines to the emptiest donors, with every transfer contending on source
// NIC, switch, and donor NIC.
func RunBalanceSim(cfg BalanceSimConfig) BalanceSimResult {
	if cfg.Alpha > cfg.Beta {
		cfg.Alpha, cfg.Beta = cfg.Beta, cfg.Alpha
	}

	utils := clustertrace.Snapshot(cfg.Profile, cfg.Machines, cfg.Seed)
	res := BalanceSimResult{
		Before:    append([]float64(nil), utils...),
		MBEBefore: MBE(utils, cfg.Alpha, cfg.Beta),
	}

	eng := sim.NewEngine()
	fabric := pcie.NewFabric(eng)
	swl := fabric.NewLink("switch", balanceSwitchBandwidth)
	nics := make([]*pcie.Link, cfg.Machines)
	for i := range nics {
		nics[i] = fabric.NewLink("nic", balanceNICBandwidth)
	}

	// Greedy matching: hottest sources drain into emptiest donors.
	type ref struct {
		idx   int
		pages int64
	}
	var sources, donors []ref
	perPage := float64(cfg.PagesPerMachine)
	for i, u := range utils {
		if u > cfg.Beta {
			sources = append(sources, ref{i, int64((u - cfg.Beta) * perPage)})
		} else if u < cfg.Alpha {
			donors = append(donors, ref{i, int64((cfg.Alpha - u) * perPage)})
		}
	}
	sort.Slice(sources, func(a, b int) bool { return sources[a].pages > sources[b].pages })
	sort.Slice(donors, func(a, b int) bool { return donors[a].pages > donors[b].pages })
	res.SourceMachines, res.DonorMachines = len(sources), len(donors)

	after := append([]float64(nil), utils...)
	si, di := 0, 0
	for si < len(sources) && di < len(donors) {
		s, d := &sources[si], &donors[di]
		move := s.pages
		if d.pages < move {
			move = d.pages
		}
		if move > 0 {
			bytes := move * units.PageSize
			fabric.Transfer(bytes, []*pcie.Link{nics[s.idx], swl, nics[d.idx]}, nil)
			res.PagesMoved += uint64(move)
			after[s.idx] -= float64(move) / perPage
			after[d.idx] += float64(move) / perPage
			s.pages -= move
			d.pages -= move
		}
		if s.pages == 0 {
			si++
		}
		if d.pages == 0 {
			di++
		}
	}
	eng.Run()

	res.After = after
	res.MBEAfter = MBE(after, cfg.Alpha, cfg.Beta)
	res.Improvement = res.MBEBefore - res.MBEAfter
	res.RebalanceTime = sim.Duration(eng.Now())
	if secs := res.RebalanceTime.Seconds(); secs > 0 {
		res.AggregateGBps = float64(res.PagesMoved) * float64(units.PageSize) / secs / 1e9
	}
	return res
}
