package mem

import (
	"fmt"

	"repro/internal/sim"
)

// NUMAPolicy selects where local pages are placed relative to the CPU's
// socket. The paper binds CPU and memory to the same node for locality or
// spreads across nodes for load balance (Sec IV-B: "data distribution").
type NUMAPolicy int

// NUMA placement policies.
const (
	// BindLocal allocates strictly on the CPU's node and fails over to the
	// remote node only when the local node is exhausted.
	BindLocal NUMAPolicy = iota
	// Interleave round-robins pages across all nodes.
	Interleave
	// PreferRemote allocates on the other socket first (load-balance mode
	// for insensitive applications under same-socket memory shortage).
	PreferRemote
)

func (p NUMAPolicy) String() string {
	switch p {
	case BindLocal:
		return "bind-local"
	case Interleave:
		return "interleave"
	case PreferRemote:
		return "prefer-remote"
	default:
		return "unknown"
	}
}

// Node is one NUMA memory node.
type Node struct {
	CapacityPages int
	UsedPages     int
	// CPUless marks a node with memory but no cores — how recent work (and
	// this paper's Sec IV-B) exposes CXL expanders to the OS.
	CPUless bool
}

// Free reports the node's free page count.
func (n *Node) Free() int { return n.CapacityPages - n.UsedPages }

// Extra memory latency of a same-node access, a cross-socket access and an
// access to a CPU-less (CXL) node.
const (
	localLatency  = 80 * sim.Nanosecond
	remoteLatency = 140 * sim.Nanosecond
	cxlLatency    = 250 * sim.Nanosecond
)

// cpuNode is the NUMA node every task's threads run on.
const cpuNode int8 = 0

// Topology is the host's NUMA layout.
type Topology struct {
	Nodes []Node

	rr    int    // interleave cursor
	order []int8 // Allocate's node-order scratch
}

// NewTopology builds a two-socket topology with the given per-node capacity
// in pages, matching the paper's dual-socket Xeon testbed.
func NewTopology(pagesPerNode int) *Topology {
	t := &Topology{}
	t.Reset(pagesPerNode)
	return t
}

// Reset returns the topology to the state NewTopology(pagesPerNode) builds,
// reusing its node array.
func (t *Topology) Reset(pagesPerNode int) {
	t.Nodes = append(t.Nodes[:0],
		Node{CapacityPages: pagesPerNode},
		Node{CapacityPages: pagesPerNode})
	t.rr = 0
}

// AddCXLNode appends a CPU-less memory node (a CXL expander exposed as NUMA).
func (t *Topology) AddCXLNode(pages int) {
	t.Nodes = append(t.Nodes, Node{CapacityPages: pages, CPUless: true})
}

// Allocate picks a node for one page under the given policy, for a CPU on
// cpuNode. It returns the node ID, or -1 if all nodes are full.
func (t *Topology) Allocate(policy NUMAPolicy) int8 {
	pick := func(id int8) int8 {
		n := &t.Nodes[id]
		if n.Free() > 0 {
			n.UsedPages++
			return id
		}
		return -1
	}
	t.order = t.appendOrder(t.order[:0], policy)
	for _, id := range t.order {
		if got := pick(id); got >= 0 {
			return got
		}
	}
	return -1
}

// appendOrder appends the nodes to try, in preference order, to ids.
func (t *Topology) appendOrder(ids []int8, policy NUMAPolicy) []int8 {
	switch policy {
	case Interleave:
		n := len(t.Nodes)
		start := t.rr % n
		t.rr++
		for i := 0; i < n; i++ {
			ids = append(ids, int8((start+i)%n))
		}
	case PreferRemote:
		for i := range t.Nodes {
			if int8(i) != cpuNode {
				ids = append(ids, int8(i))
			}
		}
		ids = append(ids, cpuNode)
	default: // BindLocal
		ids = append(ids, cpuNode)
		for i := range t.Nodes {
			if int8(i) != cpuNode {
				ids = append(ids, int8(i))
			}
		}
	}
	return ids
}

// Release returns one page to node id.
func (t *Topology) Release(id int8) {
	if id < 0 || int(id) >= len(t.Nodes) {
		panic(fmt.Sprintf("mem: release on invalid node %d", id))
	}
	n := &t.Nodes[id]
	if n.UsedPages == 0 {
		panic(fmt.Sprintf("mem: release on empty node %d", id))
	}
	n.UsedPages--
}

// AccessLatency reports the memory latency of an access from cpuNode to a
// page on memNode.
func (t *Topology) AccessLatency(memNode int8) sim.Duration {
	if int(memNode) < len(t.Nodes) && t.Nodes[memNode].CPUless {
		return cxlLatency
	}
	if cpuNode == memNode {
		return localLatency
	}
	return remoteLatency
}
