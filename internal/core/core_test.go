package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/device"
	"repro/internal/sim"
	"repro/internal/trace"
)

func options() []BackendOption {
	return []BackendOption{
		OptionFromSpec(device.SpecTestbedSSD("ssd")),
		OptionFromSpec(device.SpecConnectX5("rdma")),
		OptionFromSpec(device.SpecRemoteDRAM("dram")),
	}
}

func seqFeatures() trace.Features {
	return trace.Features{
		TouchedPages: 16384, AnonRatio: 0.95,
		LoadRatio: 0.8, SeqRatio: 0.9, MaxSeqRunPages: 300,
		FragmentRatio: 0.001, HotRatio: 0.3,
	}
}

func randFeatures() trace.Features {
	return trace.Features{
		TouchedPages: 14000, AnonRatio: 0.5,
		LoadRatio: 0.85, SeqRatio: 0.2, MaxSeqRunPages: 8,
		FragmentRatio: 0.2, HotRatio: 0.15,
	}
}

func TestTuneTransferSequentialPicksLargeGrain(t *testing.T) {
	rdma := OptionFromSpec(device.SpecConnectX5("rdma"))
	g, w := TuneTransfer(rdma, seqFeatures())
	if g < 16 {
		t.Fatalf("sequential workload got granularity %d, want >= 16", g)
	}
	if w < 2 {
		t.Fatalf("sequential workload got width %d, want >= 2", w)
	}
}

func TestTuneTransferRandomPicksSmallGrain(t *testing.T) {
	ssd := OptionFromSpec(device.SpecTestbedSSD("ssd"))
	g, _ := TuneTransfer(ssd, randFeatures())
	if g > 8 {
		t.Fatalf("random workload got granularity %d, want <= 8", g)
	}
}

func TestPredictPageCostMonotoneInBackendSpeed(t *testing.T) {
	f := seqFeatures()
	ssd := PredictPageCost(OptionFromSpec(device.SpecTestbedSSD("ssd")), f, 1, 1)
	rdma := PredictPageCost(OptionFromSpec(device.SpecConnectX5("rdma")), f, 1, 1)
	dram := PredictPageCost(OptionFromSpec(device.SpecRemoteDRAM("dram")), f, 1, 1)
	if !(dram < rdma && rdma < ssd) {
		t.Fatalf("cost ordering violated: dram=%v rdma=%v ssd=%v", dram, rdma, ssd)
	}
}

// Fig 8's core claim: anonymous-heavy workloads prefer RDMA; file-heavy
// workloads prefer SSD.
func TestBackendPreferenceByAnonRatio(t *testing.T) {
	opts := []BackendOption{
		OptionFromSpec(device.SpecTestbedSSD("ssd")),
		OptionFromSpec(device.SpecConnectX5("rdma")),
	}
	anonHeavy := seqFeatures()
	anonHeavy.AnonRatio = 0.95
	anonHeavy.FileTrafficRatio = 0.05
	anonHeavy.SeqRatio = 0.5
	anonHeavy.FragmentRatio = 0.01
	ranked := SelectBackend(nil, opts, anonHeavy, 80*sim.Nanosecond)
	if ranked[0].Name != "rdma" {
		t.Fatalf("anon-heavy ranking %v, want rdma first", ranked)
	}

	fileHeavy := anonHeavy
	fileHeavy.AnonRatio = 0.3
	fileHeavy.FileTrafficRatio = 0.7
	ranked = SelectBackend(ranked, opts, fileHeavy, 80*sim.Nanosecond)
	if ranked[0].Name != "ssd" {
		t.Fatalf("file-heavy ranking %v, want ssd first", ranked)
	}
}

func TestUnavailableBackendExcluded(t *testing.T) {
	opts := options()
	for i := range opts {
		if opts[i].Name == "rdma" {
			opts[i].Available = false
		}
	}
	ranked := SelectBackend(nil, opts, seqFeatures(), 80*sim.Nanosecond)
	if len(ranked) != len(opts)-1 {
		t.Fatalf("ranking %v, want every available backend and no other", ranked)
	}
	for _, r := range ranked {
		if r.Name == "rdma" {
			t.Fatal("unavailable backend in the ranking")
		}
	}
}

func TestMinLocalRatioSLO(t *testing.T) {
	rdma := OptionFromSpec(device.SpecConnectX5("rdma"))
	f := seqFeatures()
	tight := MinLocalRatio(rdma, f, 100*sim.Nanosecond, 1.05)
	loose := MinLocalRatio(rdma, f, 100*sim.Nanosecond, 1.8)
	if loose > tight {
		t.Fatalf("looser SLO requires more memory: tight=%v loose=%v", tight, loose)
	}
	if tight <= 0 || tight > 1 || loose < 0.1 {
		t.Fatalf("ratios out of range: tight=%v loose=%v", tight, loose)
	}
}

func TestChooseNUMA(t *testing.T) {
	if ChooseNUMA(seqFeatures(), 50*sim.Nanosecond) != 0 { // BindLocal
		t.Fatal("memory-bound task should bind local")
	}
	if ChooseNUMA(seqFeatures(), 500*sim.Nanosecond) == 0 {
		t.Fatal("compute-bound task should allow interleave")
	}
}

// The console's decision pipeline step by step: rank the backends by MEI,
// then tune the transfer and size local memory for the winner.
func TestDecideFullPipeline(t *testing.T) {
	opts := options()
	f := seqFeatures()
	ranked := SelectBackend(nil, opts, f, 100*sim.Nanosecond)
	if len(ranked) != 3 || ranked[0].Name == "" {
		t.Fatalf("ranking incomplete: %v", ranked)
	}
	if ranked[0].MEI < ranked[len(ranked)-1].MEI {
		t.Fatal("selected backend does not have top MEI")
	}
	var chosen BackendOption
	for _, o := range opts {
		if o.Name == ranked[0].Name {
			chosen = o
		}
	}
	g, w := TuneTransfer(chosen, f)
	if g < 1 || w < 1 {
		t.Fatalf("untuned transfer: g=%d w=%d", g, w)
	}
	if r := MinLocalRatio(chosen, f, 100*sim.Nanosecond, 1.3); r < 0.1 || r > 1 {
		t.Fatalf("local ratio out of range: %v", r)
	}
}

func TestUsefulPagesBounds(t *testing.T) {
	f := seqFeatures()
	if usefulPages(f, 1) != 1 {
		t.Fatal("g=1 must be exactly 1 useful page")
	}
	u := usefulPages(f, 64)
	if u <= 1 || u > 64 {
		t.Fatalf("useful pages %v out of (1, 64]", u)
	}
	frag := randFeatures()
	if usefulPages(frag, 64) >= u {
		t.Fatal("fragmented stream should predict fewer useful pages")
	}
}

// Property: MEI ordering is deterministic and complete for any feature
// vector, every score is positive, and reusing a dst that holds a stale
// ranking changes nothing.
func TestSelectBackendProperty(t *testing.T) {
	f := func(seqSeed, anonSeed, fragSeed, hotSeed uint8) bool {
		ft := trace.Features{
			TouchedPages:  8192,
			AnonRatio:     float64(anonSeed) / 255,
			SeqRatio:      float64(seqSeed) / 255,
			FragmentRatio: float64(fragSeed) / 255,
			HotRatio:      float64(hotSeed) / 255 * 0.9,
			LoadRatio:     0.8,
		}
		ranked := SelectBackend(nil, options(), ft, 100*sim.Nanosecond)
		if len(ranked) != 3 {
			return false
		}
		for i := 1; i < len(ranked); i++ {
			if ranked[i-1].MEI < ranked[i].MEI {
				return false
			}
		}
		for _, r := range ranked {
			if r.MEI <= 0 {
				return false
			}
		}
		// Determinism, through a dst that holds a stale ranking.
		stale := []RankedBackend{{"disk", 9}, {"dram", 0}, {"rdma", -1}, {"ssd", 5}}
		return slices.Equal(ranked, SelectBackend(stale, options(), ft, 100*sim.Nanosecond))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(71))}); err != nil {
		t.Fatal(err)
	}
}

// Property: predicted cost per useful page never increases when the backend
// gets strictly faster at the same tuning point.
func TestPredictCostProperty(t *testing.T) {
	f := func(gSeed, wSeed uint8) bool {
		g := granularityCandidates[int(gSeed)%len(granularityCandidates)]
		w := widthCandidates[int(wSeed)%len(widthCandidates)]
		ft := seqFeatures()
		slow := OptionFromSpec(device.SpecTestbedSSD("ssd"))
		fast := slow
		fast.OpLatency /= 2
		fast.Bandwidth *= 2
		fast.ChannelBandwidth *= 2
		return PredictPageCost(fast, ft, g, w) <= PredictPageCost(slow, ft, g, w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(72))}); err != nil {
		t.Fatal(err)
	}
}

func TestFailoverTarget(t *testing.T) {
	priority := []RankedBackend{{"dram", 4}, {"rdma", 3}, {"ssd", 2}, {"disk", 1}}
	alive := map[string]bool{"rdma": true, "ssd": true}
	healthy := func(n string) bool { return alive[n] }

	if got, ok := FailoverTarget(priority, "dram", healthy); !ok || got != "rdma" {
		t.Fatalf("FailoverTarget = %q,%v, want rdma", got, ok)
	}
	// The demoted backend is excluded even if the health probe likes it.
	if got, ok := FailoverTarget(priority, "rdma", func(string) bool { return true }); !ok || got != "dram" {
		t.Fatalf("FailoverTarget = %q,%v, want dram", got, ok)
	}
	if got, ok := FailoverTarget(priority, "rdma", healthy); !ok || got != "ssd" {
		t.Fatalf("FailoverTarget = %q,%v, want ssd", got, ok)
	}
	// Nothing healthy: no target.
	if _, ok := FailoverTarget(priority, "rdma", func(string) bool { return false }); ok {
		t.Fatal("FailoverTarget found a target with nothing healthy")
	}
	// Nil healthy accepts the first non-demoted entry.
	if got, ok := FailoverTarget(priority, "dram", nil); !ok || got != "rdma" {
		t.Fatalf("FailoverTarget = %q,%v with nil healthy, want rdma", got, ok)
	}
}
