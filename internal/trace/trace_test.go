package trace

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSequentialStream(t *testing.T) {
	tbl := NewTable(100)
	for i := int32(0); i < 100; i++ {
		tbl.Record(i, false)
	}
	f := tbl.Features(100)
	if f.SeqRatio != 1.0 {
		t.Fatalf("seq ratio=%v, want 1.0", f.SeqRatio)
	}
	if f.MaxSeqRunPages != 99 {
		t.Fatalf("max run=%d, want 99", f.MaxSeqRunPages)
	}
	if f.FragmentRatio != 1.0/100 {
		t.Fatalf("fragment ratio=%v, want 0.01 (one segment over 100 pages)", f.FragmentRatio)
	}
	if f.LoadRatio != 1.0 {
		t.Fatalf("load ratio=%v", f.LoadRatio)
	}
	if f.TouchedPages != 100 {
		t.Fatalf("touched=%d", f.TouchedPages)
	}
}

func TestStridedStreamFullyFragmented(t *testing.T) {
	tbl := NewTable(100)
	for i := int32(0); i < 100; i += 2 {
		tbl.Record(i, false)
	}
	f := tbl.Features(100)
	if f.SeqRatio != 0 {
		t.Fatalf("stride-2 seq ratio=%v, want 0", f.SeqRatio)
	}
	if f.FragmentRatio != 1.0 {
		t.Fatalf("fragment ratio=%v, want 1.0 (all isolated)", f.FragmentRatio)
	}
}

func TestLoadStoreRatio(t *testing.T) {
	tbl := NewTable(10)
	tbl.Record(0, false)
	tbl.Record(1, false)
	tbl.Record(2, false)
	tbl.Record(3, true)
	f := tbl.Features(10)
	if f.LoadRatio != 0.75 {
		t.Fatalf("load ratio=%v, want 0.75", f.LoadRatio)
	}
}

func TestHotRatioSkewedStream(t *testing.T) {
	tbl := NewTable(100)
	// Page 0 gets 80 accesses, pages 1..20 get one each: hot set = 1 page.
	for i := 0; i < 80; i++ {
		tbl.Record(0, false)
	}
	for i := int32(1); i <= 20; i++ {
		tbl.Record(i, false)
	}
	f := tbl.Features(100)
	if f.HotRatio != 0.01 {
		t.Fatalf("hot ratio=%v, want 0.01", f.HotRatio)
	}
}

func TestHotRatioUniformStream(t *testing.T) {
	tbl := NewTable(100)
	for rep := 0; rep < 5; rep++ {
		for i := int32(0); i < 100; i++ {
			tbl.Record(i, false)
		}
	}
	f := tbl.Features(100)
	if f.HotRatio < 0.79 || f.HotRatio > 0.81 {
		t.Fatalf("uniform hot ratio=%v, want ~0.8", f.HotRatio)
	}
}

func TestAnonRatio(t *testing.T) {
	tbl := NewTable(50)
	tbl.Record(0, false)
	f := tbl.Features(30)
	if f.AnonRatio != 0.6 {
		t.Fatalf("anon ratio=%v, want 0.6", f.AnonRatio)
	}
}

func TestReset(t *testing.T) {
	tbl := NewTable(10)
	tbl.Record(0, true)
	tbl.Record(1, false)
	tbl.Reset()
	if tbl.Accesses() != 0 || tbl.touched != 0 {
		t.Fatal("reset incomplete")
	}
	f := tbl.Features(10)
	if f.SeqRatio != 0 || f.HotRatio != 0 || f.FragmentRatio != 0 {
		t.Fatalf("features after reset: %+v", f)
	}
}

func TestMaxRunResetsOnJump(t *testing.T) {
	tbl := NewTable(100)
	for i := int32(0); i < 10; i++ { // run of 9
		tbl.Record(i, false)
	}
	tbl.Record(50, false)
	for i := int32(51); i < 55; i++ { // run of 4
		tbl.Record(i, false)
	}
	f := tbl.Features(100)
	if f.MaxSeqRunPages != 9 {
		t.Fatalf("max run=%d, want 9", f.MaxSeqRunPages)
	}
}

// Property: all feature values stay within their definitional bounds for any
// access stream.
func TestFeatureBoundsProperty(t *testing.T) {
	f := func(pages []uint16, writes []bool) bool {
		const n = 64
		tbl := NewTable(n)
		for i, p := range pages {
			w := i < len(writes) && writes[i]
			tbl.Record(int32(p%n), w)
		}
		ft := tbl.Features(n / 2)
		inUnit := func(x float64) bool { return x >= 0 && x <= 1 }
		if !inUnit(ft.SeqRatio) || !inUnit(ft.LoadRatio) || !inUnit(ft.HotRatio) ||
			!inUnit(ft.FragmentRatio) || !inUnit(ft.AnonRatio) {
			return false
		}
		if ft.TouchedPages > n {
			return false
		}
		if ft.MaxSeqRunPages < 0 || ft.MaxSeqRunPages >= n {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(41))}); err != nil {
		t.Fatal(err)
	}
}

// Property: recording the same stream twice doubles access counts but leaves
// ratio features (which are scale-free) unchanged.
func TestFeatureScaleInvarianceProperty(t *testing.T) {
	f := func(pages []uint16) bool {
		if len(pages) < 2 {
			return true
		}
		const n = 64
		once := NewTable(n)
		twice := NewTable(n)
		for _, p := range pages {
			once.Record(int32(p%n), false)
			twice.Record(int32(p%n), false)
		}
		for _, p := range pages {
			twice.Record(int32(p%n), false)
		}
		a, b := once.Features(n), twice.Features(n)
		// Fragment ratio and touched pages depend only on the touched set.
		return a.FragmentRatio == b.FragmentRatio && a.TouchedPages == b.TouchedPages
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(42))}); err != nil {
		t.Fatal(err)
	}
}

// Features reuses table-owned scratch: calling it twice, or after Reset or
// Resize and re-recording, gives what a fresh table gives.
func TestFeaturesReuseMatchesFresh(t *testing.T) {
	// record feeds a skewed access pattern, so the hot ratio is not trivial.
	record := func(tbl *Table, n int, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 4*n; i++ {
			tbl.Record(int32(rng.Intn(n)*rng.Intn(n)/n), rng.Intn(3) == 0)
		}
	}
	fresh := func(n int, seed int64) Features {
		tbl := NewTable(n)
		record(tbl, n, seed)
		return tbl.Features(n / 2)
	}

	tbl := NewTable(200)
	record(tbl, 200, 1)
	first := tbl.Features(100)
	if want := fresh(200, 1); first != want {
		t.Fatalf("first Features %+v, want %+v", first, want)
	}
	if second := tbl.Features(100); second != first {
		t.Fatalf("second Features %+v, first %+v", second, first)
	}

	tbl.Reset()
	record(tbl, 200, 2)
	if got, want := tbl.Features(100), fresh(200, 2); got != want {
		t.Fatalf("after Reset: %+v, want %+v", got, want)
	}
	if first == fresh(200, 2) {
		t.Fatal("seeds 1 and 2 give equal features: the Reset check proves nothing")
	}

	// Resize shrinks the footprint, then grows it past the original.
	for _, n := range []int{50, 300} {
		tbl.Resize(n)
		record(tbl, n, int64(n))
		if got, want := tbl.Features(n/2), fresh(n, int64(n)); got != want {
			t.Fatalf("after Resize(%d): %+v, want %+v", n, got, want)
		}
	}
}
