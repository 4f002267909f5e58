package device

import (
	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/units"
)

// The specs below are anchored to the numbers the paper quotes: Fig 1(b)'s
// 7.9–46 GB/s single-device range, Table IV's baseline configurations
// (disk 2 GB/s, SSD 7.9 GB/s, RDMA 10 GB/s), and the testbed description
// (1TB SSD at 3.8 GB/s, 6TB HDD at 0.4 GB/s, dual-port 10 GB/s ConnectX-5).

// SpecHDD models the testbed's 6 TB HDD (0.4 GB/s, seek-bound random access).
func SpecHDD(name string) Spec {
	return Spec{
		Name: name, Kind: HDD,
		Bandwidth:        units.GBps(0.4),
		ReadLatency:      80 * sim.Microsecond,
		WriteLatency:     100 * sim.Microsecond,
		RandomPenalty:    4 * sim.Millisecond,
		Channels:         1,
		ChannelBandwidth: units.GBps(0.4),
		Capacity:         6 * units.TiB,
		CostPerGB:        0.03,
		SlotGen:          pcie.Gen3, SlotLanes: 4,
	}
}

// SpecDiskArray models the Linux-swap baseline's striped disk backend
// (Table IV: disk, 2 GB/s, 2T), named "disk".
func SpecDiskArray() Spec {
	return Spec{
		Name: "disk", Kind: HDD,
		Bandwidth:        units.GBps(2),
		ReadLatency:      70 * sim.Microsecond,
		WriteLatency:     90 * sim.Microsecond,
		RandomPenalty:    900 * sim.Microsecond,
		Channels:         4,
		ChannelBandwidth: units.GBps(0.6),
		Capacity:         2 * units.TiB,
		CostPerGB:        0.05,
		SlotGen:          pcie.Gen3, SlotLanes: 8,
	}
}

// SpecTestbedSSD models the testbed's 1 TB NVMe SSD (3.8 GB/s).
func SpecTestbedSSD(name string) Spec {
	return Spec{
		Name: name, Kind: SSD,
		Bandwidth:        units.GBps(3.8),
		ReadLatency:      75 * sim.Microsecond,
		WriteLatency:     25 * sim.Microsecond,
		RandomPenalty:    12 * sim.Microsecond,
		Channels:         4,
		ChannelBandwidth: units.GBps(1.0),
		Capacity:         1 * units.TiB,
		CostPerGB:        0.10,
		SlotGen:          pcie.Gen3, SlotLanes: 4,
	}
}

// SpecNVMeSSD models a top-end NVMe SSD (7.9 GB/s, the TMO baseline's
// device and the low end of Fig 1(b)).
func SpecNVMeSSD(name string) Spec {
	return Spec{
		Name: name, Kind: SSD,
		Bandwidth:        units.GBps(7.9),
		ReadLatency:      60 * sim.Microsecond,
		WriteLatency:     18 * sim.Microsecond,
		RandomPenalty:    9 * sim.Microsecond,
		Channels:         8,
		ChannelBandwidth: units.GBps(2.0),
		Capacity:         1 * units.TiB,
		CostPerGB:        0.12,
		SlotGen:          pcie.Gen4, SlotLanes: 4,
	}
}

// SpecConnectX5 models the testbed's Mellanox ConnectX-5 (dual-port,
// 10 GB/s aggregate, RoCE) reaching remote DRAM.
func SpecConnectX5(name string) Spec {
	return Spec{
		Name: name, Kind: RDMA,
		Bandwidth:        units.GBps(10),
		ReadLatency:      3 * sim.Microsecond,
		WriteLatency:     3 * sim.Microsecond,
		RandomPenalty:    0,
		Channels:         2, // dual port; event queues raise this online
		ChannelBandwidth: units.GBps(5),
		Capacity:         256 * units.GiB,
		CostPerGB:        1.0,
		SlotGen:          pcie.Gen3, SlotLanes: 16,
	}
}

// SpecConnectX6 models a ConnectX-6 200 Gb/s NIC (25 GB/s).
func SpecConnectX6(name string) Spec {
	return Spec{
		Name: name, Kind: RDMA,
		Bandwidth:        units.GBps(25),
		ReadLatency:      2500 * sim.Nanosecond,
		WriteLatency:     2500 * sim.Nanosecond,
		RandomPenalty:    0,
		Channels:         4,
		ChannelBandwidth: units.GBps(7),
		Capacity:         512 * units.GiB,
		CostPerGB:        1.1,
		SlotGen:          pcie.Gen4, SlotLanes: 16,
	}
}

// SpecBlueField3 models an NVIDIA BlueField-3 DPU card (~40 GB/s effective).
func SpecBlueField3(name string) Spec {
	return Spec{
		Name: name, Kind: DPU,
		Bandwidth:        units.GBps(40),
		ReadLatency:      2 * sim.Microsecond,
		WriteLatency:     2 * sim.Microsecond,
		RandomPenalty:    0,
		Channels:         8,
		ChannelBandwidth: units.GBps(6),
		Capacity:         1 * units.TiB,
		CostPerGB:        1.4,
		SlotGen:          pcie.Gen5, SlotLanes: 16,
	}
}

// SpecCXL models a CXL 1.0 memory expander (46 GB/s, the top of Fig 1(b)),
// treated as a far-memory backend (the paper also supports treating it as a
// CPU-less NUMA node; see internal/mem).
func SpecCXL(name string) Spec {
	return Spec{
		Name: name, Kind: CXL,
		Bandwidth:        units.GBps(46),
		ReadLatency:      500 * sim.Nanosecond,
		WriteLatency:     500 * sim.Nanosecond,
		RandomPenalty:    0,
		Channels:         8,
		ChannelBandwidth: units.GBps(8),
		Capacity:         512 * units.GiB,
		CostPerGB:        2.5,
		SlotGen:          pcie.Gen5, SlotLanes: 16,
	}
}

// SwitchHopLatency is the one-way store-and-forward latency a CXL switch
// hop adds to a pooled-memory access (CXL-DMSim measures ~80–100 ns per
// switch traversal on Gen5 ports).
const SwitchHopLatency = 90 * sim.Nanosecond

// SpecPooledCXL models one host's port onto switch-attached pooled CXL
// memory: the same 46 GB/s media class as SpecCXL, with per-op latency
// growing by SwitchHopLatency per switch hop and the port narrowed to ×8 —
// pooled DCD capacity trades a little path width for a much larger, shared
// capacity at lower cost per GB. With hops = 0 the latency envelope
// degenerates to the direct-attached SpecCXL expander.
func SpecPooledCXL(name string, hops int) Spec {
	lat := 500*sim.Nanosecond + sim.Duration(hops)*SwitchHopLatency
	return Spec{
		Name: name, Kind: PooledCXL,
		Bandwidth:        units.GBps(46),
		ReadLatency:      lat,
		WriteLatency:     lat,
		RandomPenalty:    0,
		Channels:         8,
		ChannelBandwidth: units.GBps(8),
		Capacity:         2 * units.TiB,
		CostPerGB:        1.6,
		SlotGen:          pcie.Gen5, SlotLanes: 8,
	}
}

// SpecRemoteDRAM models host-donated DRAM reached over the memory bus /
// hypervisor shared-memory path (Fastswap's and XMemPod's "DRAM backend").
func SpecRemoteDRAM(name string) Spec {
	return Spec{
		Name: name, Kind: RemoteDRAM,
		Bandwidth:        units.GBps(30), // copy-path bound, not raw DRAM speed
		ReadLatency:      900 * sim.Nanosecond,
		WriteLatency:     900 * sim.Nanosecond,
		RandomPenalty:    0,
		Channels:         8,
		ChannelBandwidth: units.GBps(6),
		Capacity:         64 * units.GiB,
		CostPerGB:        3.0,
		SlotGen:          pcie.Gen4, SlotLanes: 16,
	}
}

// Catalog returns the Fig 1(b) device lineup in presentation order.
func Catalog() []Spec {
	return []Spec{
		SpecNVMeSSD("nvme-ssd"),
		SpecConnectX5("connectx-5"),
		SpecConnectX6("connectx-6"),
		SpecBlueField3("bluefield-3"),
		SpecCXL("cxl-1.0"),
	}
}

// Host bundles an engine, a fabric, and the host's root-complex bandwidth
// budget. Every attached device's transfers traverse the root-complex link,
// which is what makes a single PCIe fabric the shared bottleneck that
// multi-backend far memory exists to saturate.
type Host struct {
	Eng    *sim.Engine
	Fabric *pcie.Fabric
	Root   *pcie.Link
}

// NewHost creates a host whose root complex offers the duplex bandwidth of
// the given PCIe generation and lane count (e.g. Gen4 ×16 = 64 GB/s).
func NewHost(eng *sim.Engine, gen pcie.Generation, lanes int) *Host {
	fb := pcie.NewFabric(eng)
	return &Host{
		Eng:    eng,
		Fabric: fb,
		Root:   fb.NewLink("root-complex", gen.DuplexBandwidth(lanes)),
	}
}

// Attach instantiates a device on this host's fabric, sharing the
// root-complex budget.
func (h *Host) Attach(spec Spec) *Device {
	return New(h.Eng, h.Fabric, spec, h.Root)
}
