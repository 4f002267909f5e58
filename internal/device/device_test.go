package device

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/units"
)

func TestSingleOpLatency(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHost(eng, pcie.Gen4, 16)
	d := h.Attach(SpecConnectX5("rdma0"))
	var lat sim.Duration
	d.Submit(Op{Size: units.PageSize, Sequential: true}, func(l sim.Duration) { lat = l })
	eng.Run()
	// 3µs base + 4KiB at the 5 GB/s single-channel cap ≈ 3µs + 0.82µs.
	want := 3.819
	if got := lat.Microseconds(); math.Abs(got-want) > 0.05 {
		t.Fatalf("latency %.3fµs, want ~%.3fµs", got, want)
	}
	if d.Ops.Value != 1 || d.BytesRead != float64(units.PageSize) {
		t.Fatalf("op accounting: ops=%d bytes read=%v", d.Ops.Value, d.BytesRead)
	}
}

func TestRandomPenaltyApplied(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHost(eng, pcie.Gen3, 16)
	d := h.Attach(SpecTestbedSSD("ssd0"))
	var seqLat, randLat sim.Duration
	d.Submit(Op{Size: units.PageSize, Sequential: true}, func(l sim.Duration) { seqLat = l })
	eng.Run()
	d.Submit(Op{Size: units.PageSize, Sequential: false}, func(l sim.Duration) { randLat = l })
	eng.Run()
	diff := randLat - seqLat
	want := d.Spec().RandomPenalty
	if math.Abs(float64(diff-want)) > float64(sim.Microsecond) {
		t.Fatalf("random penalty %v, want ~%v", diff, want)
	}
}

func TestWriteLatencyDiffers(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHost(eng, pcie.Gen3, 16)
	d := h.Attach(SpecTestbedSSD("ssd0"))
	var rd, wr sim.Duration
	d.Submit(Op{Size: units.PageSize, Sequential: true}, func(l sim.Duration) { rd = l })
	eng.Run()
	d.Submit(Op{Size: units.PageSize, Sequential: true, Write: true}, func(l sim.Duration) { wr = l })
	eng.Run()
	if wr >= rd {
		t.Fatalf("SSD write (%v) should be faster than read (%v) per the spec", wr, rd)
	}
	if d.Ops.Value != 2 || d.BytesWrit != float64(units.PageSize) {
		t.Fatalf("write accounting: ops=%d bytes written=%v", d.Ops.Value, d.BytesWrit)
	}
}

func TestChannelQueueing(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHost(eng, pcie.Gen4, 16)
	spec := SpecConnectX5("rdma0")
	spec.Channels = 1
	d := h.Attach(spec)
	var lats []sim.Duration
	for i := 0; i < 3; i++ {
		d.Submit(Op{Size: units.PageSize, Sequential: true}, func(l sim.Duration) { lats = append(lats, l) })
	}
	eng.Run()
	// With one channel ops serialize: each successive op waits ~one more
	// service time.
	if !(lats[0] < lats[1] && lats[1] < lats[2]) {
		t.Fatalf("latencies not increasing under queueing: %v", lats)
	}
}

func TestWideningChannelsIncreasesThroughput(t *testing.T) {
	run := func(channels int) sim.Time {
		eng := sim.NewEngine()
		h := NewHost(eng, pcie.Gen4, 16)
		spec := SpecTestbedSSD("ssd0")
		spec.Channels = channels
		d := h.Attach(spec)
		const n = 64
		for i := 0; i < n; i++ {
			d.Submit(Op{Size: units.PageSize, Sequential: true}, nil)
		}
		eng.Run()
		return eng.Now()
	}
	t1, t4 := run(1), run(4)
	if t4 >= t1 {
		t.Fatalf("4 channels (%v) not faster than 1 (%v)", t4, t1)
	}
	speedup := float64(t1) / float64(t4)
	if speedup < 2 {
		t.Fatalf("channel speedup %.2f, want >= 2", speedup)
	}
}

func TestSetChannelsOnline(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHost(eng, pcie.Gen4, 16)
	spec := SpecTestbedSSD("ssd0")
	spec.Channels = 1
	d := h.Attach(spec)
	if d.Channels() != 1 {
		t.Fatalf("channels=%d", d.Channels())
	}
	d.SetChannels(8)
	if d.Channels() != 8 {
		t.Fatalf("channels after resize=%d", d.Channels())
	}
}

// The multi-backend aggregation result at device level: two SSDs on one host
// deliver ~2x the page throughput of one, while the fabric stays unsaturated.
func TestTwoDevicesAggregateThroughput(t *testing.T) {
	run := func(nDevices int) float64 {
		eng := sim.NewEngine()
		h := NewHost(eng, pcie.Gen4, 16)
		const totalBytes = 1 << 30
		per := int64(totalBytes / nDevices)
		for i := 0; i < nDevices; i++ {
			d := h.Attach(SpecTestbedSSD("ssd"))
			const chunk = 2 * units.MiB
			for off := int64(0); off < per; off += chunk {
				d.Submit(Op{Size: chunk, Sequential: true}, nil)
			}
		}
		eng.Run()
		return totalBytes / eng.Now().Seconds()
	}
	one, two := run(1), run(2)
	ratio := two / one
	if ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("2-device throughput ratio %.2f, want ~2.0 (one=%.1f MB/s two=%.1f MB/s)",
			ratio, one/1e6, two/1e6)
	}
}

func TestRootComplexCapsAggregate(t *testing.T) {
	// Many fast devices on a narrow host link: aggregate throughput is
	// pinned at the root-complex budget.
	eng := sim.NewEngine()
	h := NewHost(eng, pcie.Gen1, 4) // tiny budget: 4 GT/s*0.8/8*2 = 1 GB/s duplex... see assertion
	budget := float64(pcie.Gen1.DuplexBandwidth(4))
	const totalBytes = 256 << 20
	for i := 0; i < 4; i++ {
		d := h.Attach(SpecCXL("cxl"))
		d.Submit(Op{Size: totalBytes / 4, Sequential: true}, nil)
	}
	eng.Run()
	rate := totalBytes / eng.Now().Seconds()
	if rate > budget*1.01 {
		t.Fatalf("aggregate %.2f GB/s exceeds root budget %.2f GB/s", rate/1e9, budget/1e9)
	}
	if rate < budget*0.9 {
		t.Fatalf("aggregate %.2f GB/s far below achievable budget %.2f GB/s", rate/1e9, budget/1e9)
	}
}

func TestCatalogWithinPaperRange(t *testing.T) {
	// Fig 1(b): single-device bandwidth spans 7.9 to 46 GB/s.
	for _, spec := range Catalog() {
		gb := spec.Bandwidth.GB()
		if gb < 7.9-0.01 || gb > 46+0.01 {
			t.Errorf("%s bandwidth %.1f GB/s outside Fig 1(b) range [7.9, 46]", spec.Name, gb)
		}
		if spec.Capacity <= 0 || spec.CostPerGB <= 0 || spec.Channels <= 0 {
			t.Errorf("%s has incomplete spec", spec.Name)
		}
	}
}

func TestKindStrings(t *testing.T) {
	kinds := map[Kind]string{HDD: "hdd", SSD: "ssd", RDMA: "rdma", DPU: "dpu",
		CXL: "cxl", RemoteDRAM: "dram", Kind(42): "unknown"}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestInvalidOpsPanic(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHost(eng, pcie.Gen4, 16)
	d := h.Attach(SpecTestbedSSD("ssd0"))
	defer func() {
		if recover() == nil {
			t.Fatal("zero-size op did not panic")
		}
	}()
	d.Submit(Op{Size: 0}, nil)
}

// Property: latency ordering across media holds for any op size — DRAM-class
// backends are faster than RDMA, which beats SSD, which beats HDD (random).
func TestMediaLatencyOrderingProperty(t *testing.T) {
	f := func(sizeSeed uint16) bool {
		size := int64(sizeSeed)*64 + int64(units.PageSize)
		measure := func(spec Spec) sim.Duration {
			eng := sim.NewEngine()
			h := NewHost(eng, pcie.Gen5, 16)
			d := h.Attach(spec)
			var lat sim.Duration
			d.Submit(Op{Size: size, Sequential: false}, func(l sim.Duration) { lat = l })
			eng.Run()
			return lat
		}
		dram := measure(SpecRemoteDRAM("dram"))
		rdma := measure(SpecConnectX5("rdma"))
		ssd := measure(SpecTestbedSSD("ssd"))
		hdd := measure(SpecHDD("hdd"))
		return dram < rdma && rdma < ssd && ssd < hdd
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(21))}); err != nil {
		t.Fatal(err)
	}
}

func TestDeviceAccessors(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHost(eng, pcie.Gen3, 16)
	d := h.Attach(SpecDiskArray())
	if d.Kind() != HDD || d.Name() != "disk" {
		t.Fatal("metadata accessors wrong")
	}
	if d.SlotLink() == nil || d.internal == nil {
		t.Fatal("link accessors nil")
	}
	if d.QueueDepth() != 0 || d.readCh.InUse()+d.writeCh.InUse() != 0 {
		t.Fatal("fresh device should be idle")
	}
	d.Submit(Op{Size: units.PageSize, Sequential: true}, nil)
	eng.Run()
	if d.TotalBytes() != float64(units.PageSize) {
		t.Fatalf("TotalBytes=%v", d.TotalBytes())
	}
}

func TestDiskArraySpec(t *testing.T) {
	s := SpecDiskArray()
	if s.Bandwidth.GB() != 2 {
		t.Fatalf("disk array bandwidth %.1f, Table IV says 2 GB/s", s.Bandwidth.GB())
	}
	if s.Kind != HDD || s.Capacity != 2*units.TiB {
		t.Fatal("disk array spec wrong")
	}
}
