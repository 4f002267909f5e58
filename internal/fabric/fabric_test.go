package fabric

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/place"
	"repro/internal/sim"
	"repro/internal/workload"
)

// --- coherence ---

func TestCoherenceEpochSemantics(t *testing.T) {
	c := NewCoherence()
	id := c.Region(4)

	want := backInvalidation * 3
	if d := c.Charge(id, 0); d != want {
		t.Fatalf("first write charged %v, want %v", d, want)
	}
	if d := c.Charge(id, 0); d != 0 {
		t.Fatalf("same-writer write charged %v", d)
	}
	if d := c.Charge(id, 2); d != want {
		t.Fatalf("writer change charged %v, want %v", d, want)
	}
	if c.regions[id].epochs != 2 || c.regions[id].cost != 2*want {
		t.Fatalf("epochs %d cost %v, want 2 and %v", c.regions[id].epochs, c.regions[id].cost, 2*want)
	}
	if c.TotalEpochs() != 2 || c.TotalCost() != 2*want {
		t.Fatalf("totals %d/%v", c.TotalEpochs(), c.TotalCost())
	}
}

func TestCoherenceSingleSharerIsFree(t *testing.T) {
	c := NewCoherence()
	id := c.Region(1)
	if d := c.Charge(id, 0); d != 0 {
		t.Fatalf("lone sharer charged %v", d)
	}
	if c.regions[id].epochs != 1 {
		t.Fatalf("epoch not recorded: %d", c.regions[id].epochs)
	}
}

// --- cell helpers ---

// probeSpec is a small task that swaps enough to exercise the far path.
func probeSpec(pages int) workload.Spec {
	return workload.Spec{
		Name:             "probe",
		Class:            workload.Compute,
		FootprintPages:   pages,
		AnonFraction:     1,
		Coverage:         1,
		SegmentLen:       64,
		SeqShare:         0.5,
		RunLen:           4,
		HotShare:         1,
		HotProb:          0,
		WriteFraction:    0.3,
		ComputePerAccess: 2 * sim.Microsecond,
		MainAccesses:     2048,
		Threads:          1,
		SwapFeature:      'F',
	}
}

func testCellConfig(eng *sim.Engine, name string, pooled bool) Config {
	spec := DefaultSpec()
	spec.Hosts = 2
	spec.Slab = 64
	apps := []cluster.App{
		{Spec: probeSpec(256), Cores: 1},
		{Spec: func() workload.Spec { s := probeSpec(512); s.Name = "probe-fat"; return s }(), Cores: 1},
	}
	return Config{
		Eng:              eng,
		Name:             name,
		Spec:             spec,
		CoresPerHost:     2,
		DRAMPagesPerHost: 512,
		FarPagesPerHost:  128, // a fat probe's far share (256) must borrow
		Pooled:           pooled,
		Templates:        apps,
		Tasks:            4,
		LocalRatio:       0.5,
		Seed:             1,
	}
}

// --- cell ---

func TestCellPooledRunsToCompletion(t *testing.T) {
	eng := sim.NewEngine()
	cell := NewCell(testCellConfig(eng, "cell", true))
	res := cell.Run()
	if res.Placed != 4 || res.Completed != 4 || res.Refused != 0 {
		t.Fatalf("placed %d completed %d refused %d, want 4/4/0", res.Placed, res.Completed, res.Refused)
	}
	if res.PoolGrants == 0 || res.PoolGrants != cell.pool.Reclaims {
		t.Fatalf("grants %d reclaims %d: fat probes must borrow and return", res.PoolGrants, cell.pool.Reclaims)
	}
	if res.WriterEpochs == 0 || res.CoherenceCost == 0 {
		t.Fatalf("pool grants opened no writer epochs (%d, %v)", res.WriterEpochs, res.CoherenceCost)
	}
	if err := cell.pool.Audit(); err != nil {
		t.Fatal(err)
	}
	if cell.pool.FreeSlabs() != cell.pool.Capacity() {
		t.Fatalf("drained cell left %d slabs granted", cell.pool.Capacity()-cell.pool.FreeSlabs())
	}
	if res.Makespan <= 0 {
		t.Fatalf("makespan %v", res.Makespan)
	}
}

// TestNewCellLeavesCallerPolicyUntouched builds two pooled cells from one
// policy: each extends its own copy, so the caller's chains keep their
// length and neither cell runs the other's pool extender.
func TestNewCellLeavesCallerPolicyUntouched(t *testing.T) {
	p := place.Builtin("worst-fit")
	preds, exts := len(p.Predicates), len(p.Extenders)
	for _, name := range []string{"a", "b"} {
		cfg := testCellConfig(sim.NewEngine(), name, true)
		cfg.Spec.Placer = PlacerFabric
		cfg.Policy = p
		cell := NewCell(cfg)
		if got := len(cell.policy.Predicates); got != preds+1 {
			t.Errorf("cell %s has %d predicates, want %d", name, got, preds+1)
		}
		if got := len(cell.policy.Extenders); got != exts+1 {
			t.Errorf("cell %s has %d extenders, want %d", name, got, exts+1)
		}
	}
	if len(p.Predicates) != preds || len(p.Extenders) != exts {
		t.Fatalf("NewCell grew the caller's policy to %d predicates and %d extenders, want %d and %d",
			len(p.Predicates), len(p.Extenders), preds, exts)
	}
}

func TestCellStaticRefusesWhatCannotFit(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testCellConfig(eng, "cell", false)
	cfg.Spec.Pool = 0 // no ratio growth: fat probes (far 256 > 128) can never fit
	res := NewCell(cfg).Run()
	if res.Refused != 2 || res.Completed != 2 {
		t.Fatalf("refused %d completed %d, want 2 refused fat probes", res.Refused, res.Completed)
	}
	if res.PoolGrants != 0 {
		t.Fatalf("static cell granted %d slabs", res.PoolGrants)
	}
	if res.StrandedFrac <= 0 {
		t.Fatal("refusals with free far capacity must record stranding")
	}
}

func TestCellPoolZeroModesByteIdentical(t *testing.T) {
	run := func(pooled bool) Result {
		eng := sim.NewEngine()
		cfg := testCellConfig(eng, "cell", pooled)
		cfg.Spec.Pool = 0
		return NewCell(cfg).Run()
	}
	a, b := run(false), run(true)
	if a != b {
		t.Fatalf("pool=0 static and pooled cells diverge:\nstatic %+v\npooled %+v", a, b)
	}
}

func TestCellSwitchCrashDemotesPooledTasks(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testCellConfig(eng, "cell", true)
	for i := range cfg.Templates {
		cfg.Templates[i].Spec.MainAccesses = 1 << 20 // outlive the crash
	}
	cfg.RefetchPenalty = 100 * sim.Microsecond
	cell := NewCell(cfg)

	inj := faults.NewInjector(eng)
	inj.Register(cell.Switch())
	inj.Apply(faults.Schedule{Events: []faults.Event{
		{At: 5 * sim.Millisecond, Target: cell.Switch().Name(), Kind: faults.Crash},
	}})
	eng.RunUntil(eng.Now().Add(2 * sim.Second))

	if !cell.sw.down {
		t.Fatal("switch not down after crash")
	}
	if cell.Demotions() == 0 {
		t.Fatal("no task demoted off the dead switch")
	}
	res := cell.Result()
	if res.LostPages == 0 {
		t.Fatal("demotion dropped no far copies")
	}
	if err := cell.pool.Audit(); err != nil {
		t.Fatal(err)
	}
	if cell.pool.FreeSlabs() != cell.pool.Capacity() {
		t.Fatal("demoted tasks left slabs granted")
	}
	if cell.Accesses() == 0 {
		t.Fatal("demoted tasks stopped making progress on SSD")
	}
}

func TestCellStaticCrashNoDemotionPath(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testCellConfig(eng, "cell", false)
	for i := range cfg.Templates {
		cfg.Templates[i].Spec.MainAccesses = 1 << 20
	}
	cell := NewCell(cfg)
	inj := faults.NewInjector(eng)
	inj.Register(cell.Switch())
	inj.Apply(faults.Schedule{Events: []faults.Event{
		{At: 5 * sim.Millisecond, Target: cell.Switch().Name(), Kind: faults.Crash},
	}})
	eng.RunUntil(eng.Now().Add(2 * sim.Second))
	if cell.Demotions() != 0 {
		t.Fatalf("static cell demoted %d tasks; it has no monitors", cell.Demotions())
	}
}

func TestCellConfigValidation(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"unconfigured-spec": func(c *Config) { c.Spec = Spec{} },
		"no-tasks":          func(c *Config) { c.Tasks = 0 },
		"no-templates":      func(c *Config) { c.Templates = nil },
	} {
		t.Run(name, func(t *testing.T) {
			cfg := testCellConfig(sim.NewEngine(), "bad", true)
			mutate(&cfg)
			defer func() {
				if recover() == nil {
					t.Fatal("invalid config did not panic")
				}
			}()
			NewCell(cfg)
		})
	}
}

// --- switch fault states ---

func TestSwitchFaultFanout(t *testing.T) {
	eng := sim.NewEngine()
	cell := NewCell(testCellConfig(eng, "cell", true))
	sw := cell.Switch()
	if sw.hopN != DefaultSpec().Hops || len(sw.ports) != 2 {
		t.Fatalf("hops %d ports %d", sw.hopN, len(sw.ports))
	}
	sw.Stall()
	for _, d := range sw.ports {
		if !d.Stalled() {
			t.Fatal("stall did not reach a port")
		}
	}
	sw.Recover()
	for _, d := range sw.ports {
		if d.Stalled() {
			t.Fatal("recover did not reach a port")
		}
	}
	sw.Fail()
	if !sw.down {
		t.Fatal("switch not down after Fail")
	}
	sw.Recover() // failed switches stay down
	sw.Stall()   // and further fault states are no-ops
	for _, d := range sw.ports {
		if !d.Down() {
			t.Fatal("port recovered after permanent switch failure")
		}
	}
	if !strings.Contains(sw.Name(), "cell/sw") {
		t.Fatalf("switch name %q", sw.Name())
	}
}

// --- in-fabric placer ---

func extCandidates() []place.Candidate {
	return []place.Candidate{
		{ID: 0, FreeCores: 4, FreePages: 64, FarFree: 100, PoolFree: 512},
		{ID: 1, FreeCores: 4, FreePages: 64, FarFree: 300, PoolFree: 512},
		{ID: 2, FreeCores: 4, FreePages: 64, FarFree: 260, PoolFree: 512},
	}
}

func TestPoolExtenderRespectsPrivateFit(t *testing.T) {
	p := NewPool(sim.NewEngine(), "p", 3, 4, 128)
	ext := PoolExtender(p)
	// Chosen host 1 fits the request privately: never overridden, even
	// though host 2 would be a tighter fit.
	if got := ext.Extend(place.Request{FarPages: 250}, extCandidates(), 1); got != 1 {
		t.Fatalf("extender moved a privately-fitting choice to %d", got)
	}
}

func TestPoolExtenderPrefersPrivateOverPool(t *testing.T) {
	p := NewPool(sim.NewEngine(), "p", 3, 4, 128)
	ext := PoolExtender(p)
	// Chosen host 0 must borrow (100 < 250); hosts 1 and 2 fit privately.
	// Best-fit private leftover: host 2 (260-250=10) beats host 1 (50).
	if got := ext.Extend(place.Request{FarPages: 250}, extCandidates(), 0); got != 2 {
		t.Fatalf("extender chose %d, want tightest private fit 2", got)
	}
}

func TestPoolExtenderFewestSlabsThenLowestID(t *testing.T) {
	p := NewPool(sim.NewEngine(), "p", 3, 8, 128)
	ext := PoolExtender(p)
	cands := []place.Candidate{
		{ID: 0, FarFree: 0, PoolFree: 1024},
		{ID: 1, FarFree: 0, PoolFree: 1024},
	}
	// Every candidate borrows the same slab count: lowest ID wins.
	if got := ext.Extend(place.Request{FarPages: 200}, cands, 1); got != 0 {
		t.Fatalf("slab tie broke to %d, want lowest ID 0", got)
	}
	// A candidate whose PoolFree view cannot cover the spill is skipped.
	cands[0].PoolFree = 100
	if got := ext.Extend(place.Request{FarPages: 200}, cands, 1); got != 1 {
		t.Fatalf("extender chose starved candidate %d", got)
	}
}

func TestPoolExtenderNoFarDemandNoOp(t *testing.T) {
	p := NewPool(sim.NewEngine(), "p", 3, 4, 128)
	ext := PoolExtender(p)
	if got := ext.Extend(place.Request{FarPages: 0}, extCandidates(), 2); got != 2 {
		t.Fatalf("no-far request re-targeted to %d", got)
	}
	if got := ext.Extend(place.Request{FarPages: 10}, extCandidates(), -1); got != -1 {
		t.Fatal("extender invented a placement for a refused request")
	}
}

// --- pool (the conformance harness exercises the contract cross-package;
// these pin the in-package surface and the constructor guards) ---

func TestPoolConstructorGuards(t *testing.T) {
	for name, build := range map[string]func(){
		"zero-hosts":     func() { NewPool(sim.NewEngine(), "p", 0, 4, 128) },
		"negative-slabs": func() { NewPool(sim.NewEngine(), "p", 2, -1, 128) },
		"zero-slab-size": func() { NewPool(sim.NewEngine(), "p", 2, 4, 0) },
		"bad-host":       func() { NewPool(sim.NewEngine(), "p", 2, 4, 128).Grant(7, 1) },
		"bad-region":     func() { NewCoherence().Region(0) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			build()
		})
	}
}
