package workload

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

func TestSpecsCoverTableV(t *testing.T) {
	specs := Specs()
	if len(specs) != 17 {
		t.Fatalf("got %d workloads, Table V has 17", len(specs))
	}
	classes := map[Class]int{}
	features := map[byte]int{}
	for _, s := range specs {
		classes[s.Class]++
		features[s.SwapFeature]++
		if s.FootprintPages <= 0 || s.MainAccesses <= 0 {
			t.Errorf("%s: empty footprint or accesses", s.Name)
		}
		if s.AnonFraction < 0 || s.AnonFraction > 1 {
			t.Errorf("%s: bad anon fraction", s.Name)
		}
		if s.MaxMemGiB <= 0 {
			t.Errorf("%s: missing max mem", s.Name)
		}
	}
	if classes[Compute] != 5 || classes[Graph] != 6 || classes[AI] != 6 {
		t.Fatalf("class sizes %v, want 5/6/6 per Table V", classes)
	}
	// Table VI labels 8 workloads S and 9 F.
	if features['S'] != 8 || features['F'] != 9 {
		t.Fatalf("swap features %v, want 8 S / 9 F", features)
	}
}

func TestByName(t *testing.T) {
	if ByName("chat-int").MaxMemGiB != 14 {
		t.Fatal("chat-int lookup wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown name did not panic")
		}
	}()
	ByName("nope")
}

func TestStreamDeterminism(t *testing.T) {
	spec := ByName("lg-bfs")
	a, b := NewStream(spec, 42), NewStream(spec, 42)
	for i := 0; i < 10000; i++ {
		xa, oka := a.Next()
		xb, okb := b.Next()
		if xa != xb || oka != okb {
			t.Fatalf("streams diverge at access %d: %v/%v vs %v/%v", i, xa, oka, xb, okb)
		}
		if !oka {
			break
		}
	}
}

func TestStreamLength(t *testing.T) {
	spec := ByName("tf-infer")
	s := NewStream(spec, 1)
	count := 0
	for {
		_, ok := s.Next()
		if !ok {
			break
		}
		count++
	}
	if count != len(s.mapping)+s.spec.MainAccesses {
		t.Fatalf("emitted %d accesses, want %d", count, len(s.mapping)+s.spec.MainAccesses)
	}
}

func TestInitSweepCoversMappedPages(t *testing.T) {
	spec := ByName("stream")
	s := NewStream(spec, 7)
	fileBoundary := int32(float64(spec.FootprintPages) * (1 - spec.AnonFraction))
	seen := map[int32]bool{}
	for i := 0; i < s.MappedPages(); i++ {
		a, ok := s.Next()
		if !ok {
			t.Fatal("stream ended during init sweep")
		}
		if got, want := a.Write, a.Page >= fileBoundary; got != want {
			t.Fatalf("init access to page %d: write=%v, want %v (file boundary %d)",
				a.Page, got, want, fileBoundary)
		}
		seen[a.Page] = true
	}
	if len(seen) != s.MappedPages() {
		t.Fatalf("init sweep touched %d distinct pages, want %d", len(seen), s.MappedPages())
	}
}

// Verify generated trace statistics land near the spec's knobs, so the
// configuration console sees the features each workload was designed to show.
func TestTraceStatisticsMatchSpec(t *testing.T) {
	for _, name := range []string{"stream", "clip", "chat-int", "gg-bfs"} {
		spec := ByName(name)
		s := NewStream(spec, 99)
		tbl := trace.NewTable(spec.FootprintPages)
		for {
			a, ok := s.Next()
			if !ok {
				break
			}
			tbl.Record(a.Page, a.Write)
		}
		f := tbl.Features(int(spec.AnonFraction * float64(spec.FootprintPages)))

		// Sequential share: generated SeqRatio should track SeqShare within
		// a generous tolerance (runs make more than SeqShare of accesses
		// sequential; init sweep is fully sequential).
		if spec.SeqShare > 0.8 && f.SeqRatio < 0.7 {
			t.Errorf("%s: seq ratio %.2f too low for SeqShare %.2f", name, f.SeqRatio, spec.SeqShare)
		}
		if spec.SeqShare < 0.5 && f.SeqRatio > 0.8 {
			t.Errorf("%s: seq ratio %.2f too high for SeqShare %.2f", name, f.SeqRatio, spec.SeqShare)
		}
		// Fragment ratio tracks 1/SegmentLen.
		wantFrag := 1.0 / float64(spec.SegmentLen)
		if f.FragmentRatio > wantFrag*3+0.01 || f.FragmentRatio < wantFrag/3-0.01 {
			t.Errorf("%s: fragment ratio %.4f, want ~%.4f", name, f.FragmentRatio, wantFrag)
		}
		// Coverage: touched pages should be close to Coverage×footprint.
		cov := float64(f.TouchedPages) / float64(spec.FootprintPages)
		if cov < spec.Coverage*0.85 || cov > spec.Coverage*1.1+0.01 {
			t.Errorf("%s: coverage %.2f, want ~%.2f", name, cov, spec.Coverage)
		}
	}
}

// Fragmented workloads must show higher fragment ratios than contiguous ones
// (the Fig 10 contrast).
func TestFragmentationContrast(t *testing.T) {
	measure := func(name string) float64 {
		spec := ByName(name)
		s := NewStream(spec, 5)
		tbl := trace.NewTable(spec.FootprintPages)
		for {
			a, ok := s.Next()
			if !ok {
				break
			}
			tbl.Record(a.Page, a.Write)
		}
		return tbl.Features(0).FragmentRatio
	}
	clip, chat := measure("clip"), measure("chat-int")
	if clip <= chat*5 {
		t.Fatalf("clip fragment ratio %.4f not clearly above chat-int %.4f", clip, chat)
	}
}

// Property: every generated access stays within the footprint, for every
// workload and any seed.
func TestAccessBoundsProperty(t *testing.T) {
	specs := Specs()
	f := func(seed int64, pick uint8) bool {
		spec := specs[int(pick)%len(specs)]
		s := NewStream(spec, seed)
		for i := 0; i < 5000; i++ {
			a, ok := s.Next()
			if !ok {
				return true
			}
			if a.Page < 0 || int(a.Page) >= spec.FootprintPages {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(61))}); err != nil {
		t.Fatal(err)
	}
}

func TestSpecValidate(t *testing.T) {
	for _, s := range Specs() {
		if err := s.Validate(); err != nil {
			t.Errorf("built-in spec invalid: %v", err)
		}
	}
	bad := ByName("bert")
	bad.AnonFraction = 1.5
	if bad.Validate() == nil {
		t.Error("anon fraction 1.5 accepted")
	}
	bad = ByName("bert")
	bad.Name = ""
	if bad.Validate() == nil {
		t.Error("empty name accepted")
	}
	bad = ByName("bert")
	bad.MainAccesses = 0
	if bad.Validate() == nil {
		t.Error("zero accesses accepted")
	}
}

func TestSpecsJSONRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(Specs()); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSpecs(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := Specs()
	if len(got) != len(want) {
		t.Fatalf("round trip lost specs: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("spec %s changed in round trip:\n%+v\n%+v", want[i].Name, got[i], want[i])
		}
	}
}

func TestLoadSpecsRejectsGarbage(t *testing.T) {
	if _, err := LoadSpecs(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := LoadSpecs(strings.NewReader(`[{"Name":"x","FootprintPages":-1}]`)); err == nil {
		t.Error("invalid spec accepted")
	}
	if _, err := LoadSpecs(strings.NewReader(`[{"Nope":1}]`)); err == nil {
		t.Error("unknown field accepted")
	}
}

func TestLoadSpecsDefaultsCoverage(t *testing.T) {
	specs, err := LoadSpecs(strings.NewReader(
		`[{"Name":"u","FootprintPages":100,"MainAccesses":100,"AnonFraction":1,"SegmentLen":10,"RunLen":4}]`))
	if err != nil {
		t.Fatal(err)
	}
	if specs[0].Coverage != 1 {
		t.Fatalf("coverage not defaulted: %v", specs[0].Coverage)
	}
}

func TestStreamAccessors(t *testing.T) {
	spec := ByName("bert")
	s := NewStream(spec, 1)
	if s.spec.Name != "bert" {
		t.Fatal("Spec accessor")
	}
	s.SetMainAccesses(10)
	count := 0
	for {
		if _, ok := s.Next(); !ok {
			break
		}
		count++
	}
	if count != s.MappedPages()+10 {
		t.Fatalf("SetMainAccesses: emitted %d", count)
	}
}

func TestValidateRemainingBranches(t *testing.T) {
	base := ByName("bert")
	cases := []func(*Spec){
		func(s *Spec) { s.Coverage = 0 },
		func(s *Spec) { s.SeqShare = -1 },
		func(s *Spec) { s.HotShare = 2 },
		func(s *Spec) { s.HotProb = -0.1 },
		func(s *Spec) { s.WriteFraction = 1.5 },
		func(s *Spec) { s.SegmentLen = -1 },
		func(s *Spec) { s.RunLen = -2 },
		func(s *Spec) { s.ComputePerAccess = -1 },
		func(s *Spec) { s.Threads = -1 },
		func(s *Spec) { s.FootprintPages = 0 },
	}
	for i, mutate := range cases {
		s := base
		mutate(&s)
		if s.Validate() == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
}

// Reset after arbitrary use, onto a smaller and then a larger spec, yields
// the same first 10,000 accesses as NewStream with that spec and seed.
func TestStreamResetMatchesFresh(t *testing.T) {
	big := ByName("lg-bfs")
	small := big
	small.FootprintPages /= 16
	small.SegmentLen = 8
	s := NewStream(big, 3)
	for i, spec := range []Spec{small, big, ByName("chat-int"), small} {
		for j := 0; j < 5000+i*997; j++ {
			s.Next()
		}
		seed := int64(100 + i)
		s.Reset(spec, seed)
		fresh := NewStream(spec, seed)
		if s.MappedPages() != fresh.MappedPages() || len(s.mapping)+s.spec.MainAccesses != len(fresh.mapping)+fresh.spec.MainAccesses {
			t.Fatalf("reset %d: %d mapped / %d total, fresh %d / %d", i,
				s.MappedPages(), len(s.mapping)+s.spec.MainAccesses, fresh.MappedPages(), len(fresh.mapping)+fresh.spec.MainAccesses)
		}
		for j := 0; j < 10000; j++ {
			got, gok := s.Next()
			want, wok := fresh.Next()
			if got != want || gok != wok {
				t.Fatalf("reset %d: access %d = %+v/%v, fresh %+v/%v", i, j, got, gok, want, wok)
			}
		}
	}
}
