package workload

import "testing"

func phaseSpecs() []Spec {
	a := Spec{
		Name: "scan", Class: Compute, FootprintPages: 512, AnonFraction: 1.0,
		Coverage: 1.0, SegmentLen: 512, SeqShare: 0.9, RunLen: 64,
		HotShare: 1, HotProb: 0, WriteFraction: 0.3, MainAccesses: 1000, Threads: 1,
	}
	b := a
	b.Name = "probe"
	b.SeqShare, b.RunLen = 0.1, 4
	b.HotShare, b.HotProb = 0.2, 0.8
	b.MainAccesses = 800
	return []Spec{a, b}
}

func TestPhasedStreamChains(t *testing.T) {
	specs := phaseSpecs()
	p := NewPhasedStream(specs, 1)
	count := 0
	for {
		a, ok := p.Next()
		if !ok {
			break
		}
		if a.Page < 0 || int(a.Page) >= specs[0].FootprintPages {
			t.Fatalf("access out of range: %d", a.Page)
		}
		count++
	}
	// Phase 0 init sweep + both main phases; phase 1 skips init.
	want := specs[0].MainAccesses + specs[1].MainAccesses
	if count < want || count > want+specs[0].FootprintPages {
		t.Fatalf("emitted %d accesses, want ~%d", count, want)
	}
	if p.cur != 2 {
		t.Fatalf("final phase %d, want 2", p.cur)
	}
}

func TestPhasedStreamSkipInit(t *testing.T) {
	specs := phaseSpecs()
	p := NewPhasedStream(specs, 1)
	p.SkipInit()
	count := 0
	for {
		if _, ok := p.Next(); !ok {
			break
		}
		count++
	}
	if count != specs[0].MainAccesses+specs[1].MainAccesses {
		t.Fatalf("skip-init emitted %d", count)
	}
}

func TestPhasedStreamValidation(t *testing.T) {
	mustPanic := func(name string, specs []Spec) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		NewPhasedStream(specs, 1)
	}
	mustPanic("empty", nil)
	a, b := phaseSpecs()[0], phaseSpecs()[1]
	b.FootprintPages = 1024
	mustPanic("footprint mismatch", []Spec{a, b})
	b = phaseSpecs()[1]
	b.AnonFraction = 0.5
	mustPanic("anon mismatch", []Spec{a, b})
}
