// Package datacenter models the multi-node deployment the paper targets:
// server nodes connected by a cluster network, where memory-pressured nodes
// borrow idle DRAM from underutilized peers as inter-node far memory
// (RDMA-reached remote DRAM, the Fastswap/Infiniswap/XMemPod substrate) in
// addition to their node-local backends.
//
// The network is the same fluid-flow model as the PCIe fabric: each node
// has a NIC link, and all traffic crosses a shared switch, so remote-memory
// bandwidth contends exactly where it does in a real rack.
package datacenter

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/swap"
	"repro/internal/units"
	"repro/internal/vm"
)

// Node is one server: a machine (with its local far-memory devices), a NIC
// on the cluster network, and donated-memory accounting.
type Node struct {
	Name    string
	Machine *vm.Machine
	nic     *pcie.Link

	// DonatedPages is memory this node has lent to peers.
	DonatedPages int
}

// MemUtilization reports the node's local memory utilization including
// donations (donated memory is pinned and unusable locally).
func (n *Node) MemUtilization() float64 {
	used := n.Machine.MemoryPages - n.Machine.FreePages() + n.DonatedPages
	return float64(used) / float64(n.Machine.MemoryPages)
}

// FreeForDonation reports pages the node can still lend.
func (n *Node) FreeForDonation() int {
	return n.Machine.FreePages() - n.DonatedPages
}

// Cluster is a set of nodes on one switch.
type Cluster struct {
	Eng    *sim.Engine
	fabric *pcie.Fabric
	sw     *pcie.Link
	nodes  []*Node
}

// Config sizes a cluster.
type Config struct {
	Nodes        int
	CoresPerNode int
	PagesPerNode int
}

// Every node's NIC carries 10 GB/s and the rack switch 40 GB/s.
const (
	nicBandwidth    units.BytesPerSec = 10e9
	switchBandwidth units.BytesPerSec = 40e9
)

// New builds a cluster; each node gets a local SSD (file storage and
// SSD-backend swap).
func New(eng *sim.Engine, cfg Config) *Cluster {
	if cfg.Nodes <= 0 {
		panic("datacenter: need at least one node")
	}
	c := &Cluster{
		Eng:    eng,
		fabric: pcie.NewFabric(eng),
	}
	c.sw = c.fabric.NewLink("switch", switchBandwidth)
	for i := 0; i < cfg.Nodes; i++ {
		m := vm.NewMachine(eng, pcie.Gen4, 16, cfg.CoresPerNode, cfg.PagesPerNode)
		m.AttachDevice(device.SpecTestbedSSD("ssd"))
		n := &Node{
			Name:    fmt.Sprintf("node%d", i),
			Machine: m,
			nic:     c.fabric.NewLink(fmt.Sprintf("node%d/nic", i), nicBandwidth),
		}
		c.nodes = append(c.nodes, n)
	}
	return c
}

// Node returns node i.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// RemoteMemory is a swap backend reaching a donor node's DRAM across the
// cluster network: borrower NIC → switch → donor NIC, plus the donor's
// memory service latency. It implements swap.Backend.
type RemoteMemory struct {
	cluster  *Cluster
	borrower *Node
	donor    *Node
	inflight *sim.Resource
	name     string
}

// remoteLatency is the one-sided RDMA read/write latency across the rack
// (NIC + switch hops), before payload streaming.
const remoteLatency = 3 * sim.Microsecond

// Lend pins pages of donor's DRAM for borrower and returns the remote
// memory backend reaching it. It fails if the donor lacks free memory.
func (c *Cluster) Lend(donor, borrower *Node, pages int) (*RemoteMemory, error) {
	if donor == borrower {
		return nil, fmt.Errorf("datacenter: node %s cannot lend to itself", donor.Name)
	}
	if donor.FreeForDonation() < pages {
		return nil, fmt.Errorf("datacenter: %s has only %d pages to lend, %d requested",
			donor.Name, donor.FreeForDonation(), pages)
	}
	donor.DonatedPages += pages
	return &RemoteMemory{
		cluster:  c,
		borrower: borrower,
		donor:    donor,
		inflight: sim.NewResource(c.Eng, 4),
		name:     fmt.Sprintf("remote-dram(%s->%s)", borrower.Name, donor.Name),
	}, nil
}

// Name implements swap.Backend.
func (r *RemoteMemory) Name() string { return r.name }

// Kind implements swap.Backend.
func (r *RemoteMemory) Kind() device.Kind { return device.RemoteDRAM }

// CostPerGB implements swap.Backend: borrowed DRAM was already paid for;
// the marginal cost is the RDMA fabric share.
func (r *RemoteMemory) CostPerGB() float64 { return 1.0 }

// Bandwidth implements swap.Backend: bounded by the borrower's NIC.
func (r *RemoteMemory) Bandwidth() units.BytesPerSec { return r.borrower.nic.Capacity() }

// SetWidth implements swap.Backend.
func (r *RemoteMemory) SetWidth(w int) {
	if w < 1 {
		w = 1
	}
	r.inflight.Resize(w)
}

// OpLatency reports the per-operation base latency, consumed by the
// configuration console when tuning this backend.
func (r *RemoteMemory) OpLatency() sim.Duration { return remoteLatency }

// Submit implements swap.Backend: the extent streams across borrower NIC,
// switch, and donor NIC at fair share.
func (r *RemoteMemory) Submit(ex swap.Extent, done func(lat sim.Duration)) {
	if ex.Pages <= 0 {
		panic("datacenter: extent with no pages")
	}
	start := r.cluster.Eng.Now()
	r.inflight.Acquire(func() {
		r.cluster.Eng.After(remoteLatency, func() {
			path := []*pcie.Link{r.borrower.nic, r.cluster.sw, r.donor.nic}
			r.cluster.fabric.Transfer(ex.Bytes(), path, func(at sim.Time) {
				r.inflight.Release()
				if done != nil {
					done(at.Sub(start))
				}
			})
		})
	})
}

// Reserve consumes local memory on a node (a resident application), for
// building utilization scenarios. It returns an error if the node lacks
// the memory.
func (n *Node) Reserve(pages int) error {
	if n.Machine.FreePages()-n.DonatedPages < pages {
		return fmt.Errorf("datacenter: %s cannot reserve %d pages", n.Name, pages)
	}
	// Model residency as a VM-less allocation: create a placeholder VM
	// holding the pages.
	if v := n.Machine.CreateVM("resident", 0, pages, []string{"ssd"}); v == nil {
		return fmt.Errorf("datacenter: %s reservation failed", n.Name)
	}
	return nil
}

var _ swap.Backend = (*RemoteMemory)(nil)
