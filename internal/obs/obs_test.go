package obs_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// withCapture runs fn with recording enabled and a clean registry, restoring
// global state afterwards. obs tests run sequentially (package-level state).
func withCapture(t *testing.T, fn func()) {
	t.Helper()
	obs.Reset()
	restore := obs.Capture()
	defer func() {
		restore()
		obs.Reset()
	}()
	fn()
}

func TestCaptureAttachesNewEngines(t *testing.T) {
	withCapture(t, func() {
		eng := sim.NewEngine()
		if obs.Rec(eng) == nil {
			t.Fatalf("engine created under Capture has no recorder")
		}
		un := sim.NewUnobservedEngine()
		if obs.Rec(un) != nil {
			t.Fatalf("NewUnobservedEngine must bypass the capture hook")
		}
	})
	eng := sim.NewEngine()
	if obs.Rec(eng) != nil {
		t.Fatalf("engine created after restore still observed")
	}
}

func TestRecorderSpanAndInstant(t *testing.T) {
	withCapture(t, func() {
		eng := sim.NewEngine()
		r := obs.Rec(eng)
		eng.After(5*sim.Millisecond, func() {
			start := r.Now()
			eng.After(2*sim.Millisecond, func() {
				r.Span("dev/x", "read", start, "4KiB")
				r.Instant("faults", "flap", "dev/x")
			})
		})
		eng.Run()

		evs := r.Events()
		if len(evs) != 2 {
			t.Fatalf("got %d events, want 2", len(evs))
		}
		sp := evs[0]
		if sp.Kind != obs.KindSpan || sp.Track != "dev/x" || sp.Name != "read" {
			t.Errorf("span = %+v", sp)
		}
		if sp.Ts != sim.Time(5*sim.Millisecond) || sp.Dur != 2*sim.Millisecond {
			t.Errorf("span timing ts=%v dur=%v", sp.Ts, sp.Dur)
		}
		if in := evs[1]; in.Kind != obs.KindInstant || in.Ts != sim.Time(7*sim.Millisecond) {
			t.Errorf("instant = %+v", in)
		}
	})
}

func TestRecorderEventCap(t *testing.T) {
	withCapture(t, func() {
		eng := sim.NewEngine()
		r := obs.Rec(eng)
		for i := 0; i < obs.MaxEventsPerRecorder+10; i++ {
			r.Instant("t", "e", "")
		}
		if len(r.Events()) != obs.MaxEventsPerRecorder {
			t.Errorf("events %d, want cap %d", len(r.Events()), obs.MaxEventsPerRecorder)
		}
		if r.Dropped() != 10 {
			t.Errorf("dropped %d, want 10", r.Dropped())
		}
	})
}

func TestCounterRegistry(t *testing.T) {
	tests := []struct {
		name string
		ops  func(r *obs.Recorder)
		want float64
	}{
		{"inc", func(r *obs.Recorder) {
			c := r.Counter("c")
			c.Inc()
			c.Inc()
		}, 2},
		{"add", func(r *obs.Recorder) { r.Counter("c").Add(3.5) }, 3.5},
		{"same name same counter", func(r *obs.Recorder) {
			r.Counter("c").Inc()
			r.Counter("c").Add(4)
		}, 5},
		{"distinct names distinct counters", func(r *obs.Recorder) {
			r.Counter("other").Add(100)
			r.Counter("c").Inc()
		}, 1},
		{"untouched counter reads zero", func(r *obs.Recorder) { r.Counter("c") }, 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			withCapture(t, func() {
				r := obs.Rec(sim.NewEngine())
				tc.ops(r)
				if got := r.Counter("c").Value; got != tc.want {
					t.Errorf("counter value = %g, want %g", got, tc.want)
				}
			})
		})
	}
}

func TestGaugeAndTimelineRegistry(t *testing.T) {
	withCapture(t, func() {
		r := obs.Rec(sim.NewEngine())
		r.Gauge("g").Set(1)
		r.Gauge("g").Set(7) // same gauge, last write wins
		if got := r.Gauge("g").Value; got != 7 {
			t.Errorf("gauge = %g, want 7", got)
		}
		tl := r.Timeline("tl", obs.ModeSum)
		if r.Timeline("tl", obs.ModeMean) != tl {
			t.Errorf("same name must return the same timeline")
		}
	})
}

func TestSealRunsOnce(t *testing.T) {
	withCapture(t, func() {
		r := obs.Rec(sim.NewEngine())
		n := 0
		r.OnSeal(func() { n++ })
		r.Seal()
		r.Seal()
		if n != 1 {
			t.Errorf("seal hook ran %d times, want 1", n)
		}
	})
}

func TestTraceExportShape(t *testing.T) {
	withCapture(t, func() {
		eng := sim.NewEngine()
		r := obs.Rec(eng)
		r.SetLabel("shape")
		eng.After(sim.Millisecond, func() {
			r.Span("trackA", "op", 0, "")
			r.Instant("trackB", "tick", "x")
		})
		eng.Run()
		r.Timeline("tl", obs.ModeSum).Add(0, 2)

		var buf bytes.Buffer
		if err := obs.WriteTrace(&buf); err != nil {
			t.Fatal(err)
		}
		var doc struct {
			DisplayTimeUnit string `json:"displayTimeUnit"`
			TraceEvents     []struct {
				Name string         `json:"name"`
				Ph   string         `json:"ph"`
				Pid  int            `json:"pid"`
				Tid  int            `json:"tid"`
				Ts   float64        `json:"ts"`
				Args map[string]any `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatalf("trace is not valid JSON: %v", err)
		}
		phases := map[string]int{}
		var procName string
		for _, ev := range doc.TraceEvents {
			phases[ev.Ph]++
			if ev.Ph == "M" && ev.Name == "process_name" {
				procName, _ = ev.Args["name"].(string)
			}
		}
		if procName != "shape" {
			t.Errorf("process_name = %q, want label", procName)
		}
		// 1 process_name + track metadata, 1 span, 1 instant, counter points.
		if phases["X"] != 1 || phases["i"] != 1 || phases["C"] == 0 || phases["M"] < 2 {
			t.Errorf("phase census = %v", phases)
		}
	})
}

func TestMetricsCSVShape(t *testing.T) {
	withCapture(t, func() {
		r := obs.Rec(sim.NewEngine())
		r.Counter("z").Add(1)
		r.Counter("a").Add(2)
		r.Gauge("g").Set(0.5)
		r.Timeline("tl", obs.ModeMean).Add(0, 4)
		sum := r.Timeline("tls", obs.ModeSum)
		sum.Add(0, 3)
		sum.Add(0, 4)

		var buf bytes.Buffer
		if err := obs.WriteMetricsCSV(&buf); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		if lines[0] != "# schema: "+obs.MetricsSchema {
			t.Fatalf("schema line = %q", lines[0])
		}
		if lines[1] != "run,type,name,key,value" {
			t.Fatalf("header = %q", lines[1])
		}
		joined := buf.String()
		for _, want := range []string{
			"0,counter,a,,2", "0,counter,z,,1", "0,gauge,g,,0.5",
			"0,timeline,tl,width_ns,1000000", "0,timeline,tl,0,4",
			"0,timeline,tls,0,7", // sum mode exports the bucket total

			"0,recorder,events,,0", "0,recorder,dropped,,0",
		} {
			if !strings.Contains(joined, want+"\n") {
				t.Errorf("missing row %q in:\n%s", want, joined)
			}
		}
		// Counters are name-sorted: a before z.
		if strings.Index(joined, "counter,a") > strings.Index(joined, "counter,z") {
			t.Errorf("counters not sorted:\n%s", joined)
		}
	})
}

func TestCanonicalOrderIgnoresRegistrationOrder(t *testing.T) {
	// Build the same set of recorders under several registration orders; the
	// exports must come out byte-identical. Four recorders, not two: sorting
	// with a detached key slice happens to work at n=2 (the one size where
	// "swap both" and "swap neither" cover every permutation), so only n>=3
	// exercises the ordering for real.
	labels := []string{"alpha", "beta", "gamma", "delta"}
	build := func(order []int) (trace, csv string) {
		obs.Reset()
		restore := obs.Capture()
		defer func() {
			restore()
			obs.Reset()
		}()
		for _, i := range order {
			r := obs.Rec(sim.NewEngine())
			r.SetLabel(labels[i])
			r.Counter("v").Add(float64(i + 1))
			r.Instant("t", labels[i], "")
		}
		var tb, cb bytes.Buffer
		if err := obs.WriteTrace(&tb); err != nil {
			t.Fatal(err)
		}
		if err := obs.WriteMetricsCSV(&cb); err != nil {
			t.Fatal(err)
		}
		return tb.String(), cb.String()
	}
	t1, c1 := build([]int{0, 1, 2, 3})
	for _, order := range [][]int{{3, 2, 1, 0}, {2, 0, 3, 1}, {1, 3, 0, 2}} {
		t2, c2 := build(order)
		if t1 != t2 {
			t.Errorf("trace depends on registration order %v:\n%s\nvs\n%s", order, t1, t2)
		}
		if c1 != c2 {
			t.Errorf("metrics CSV depends on registration order %v:\n%s\nvs\n%s", order, c1, c2)
		}
	}
}

// TestNonFiniteValuesExportAsValidJSON pins fmtFloat's clamp on both
// artifacts: timeline buckets holding NaN/±Inf still export as a trace that
// parses as JSON, and no metric leaks a NaN or Inf token into the CSV.
func TestNonFiniteValuesExportAsValidJSON(t *testing.T) {
	withCapture(t, func() {
		r := obs.Rec(sim.NewEngine())
		r.Gauge("nan").Set(math.NaN())
		r.Gauge("posinf").Set(math.Inf(1))
		r.Counter("neginf").Add(math.Inf(-1))
		r.Timeline("tl/nan", obs.ModeMean).Add(0, math.NaN())
		r.Timeline("tl/inf", obs.ModeSum).Add(0, math.Inf(1))
		var tb bytes.Buffer
		if err := obs.WriteTrace(&tb); err != nil {
			t.Fatal(err)
		}
		var parsed any
		if err := json.Unmarshal(tb.Bytes(), &parsed); err != nil {
			t.Fatalf("trace with non-finite timeline values does not parse: %v\n%s", err, tb.String())
		}
		for _, name := range []string{`"tl/nan"`, `"tl/inf"`} {
			if !strings.Contains(tb.String(), name) {
				t.Errorf("trace lacks the %s counter series:\n%s", name, tb.String())
			}
		}
		var cb bytes.Buffer
		if err := obs.WriteMetricsCSV(&cb); err != nil {
			t.Fatal(err)
		}
		for _, tok := range []string{"NaN", "Inf"} {
			if strings.Contains(cb.String(), tok) {
				t.Errorf("metrics CSV leaks %q token:\n%s", tok, cb.String())
			}
		}
	})
}

func TestObserveStation(t *testing.T) {
	withCapture(t, func() {
		eng := sim.NewEngine()
		r := obs.Rec(eng)
		st := sim.NewStation(eng, 1)
		obs.ObserveStation(r, st, "stage")
		for i := 0; i < 3; i++ {
			st.Submit(sim.Millisecond, nil)
		}
		eng.Run()
		r.Seal()
		if got := r.Counter("stage/served").Value; got != 3 {
			t.Errorf("served = %g, want 3", got)
		}
		if r.Gauge("stage/utilization").Value <= 0 {
			t.Errorf("utilization gauge not set")
		}
		// Three arrivals at t=0 with one server: the first goes straight into
		// service, so observed waiting depths are 0, 0, 1 — mean 1/3.
		q := r.Timeline("stage/queue", obs.ModeMean)
		if got := q.BucketMean(0); got != 1.0/3.0 {
			t.Errorf("queue depth mean = %g, want 1/3", got)
		}
	})
}

func TestRecorderHistogramsAndOpIDs(t *testing.T) {
	withCapture(t, func() {
		eng := sim.NewEngine()
		r := obs.Rec(eng)

		// Op ids are monotone from 1; 0 stays reserved for "no id".
		if a, b := r.NextOpID(), r.NextOpID(); a != 1 || b != 2 {
			t.Fatalf("NextOpID sequence = %d,%d, want 1,2", a, b)
		}

		// Explicit histograms: Observe is shorthand for Hist().Add().
		r.Observe("pcie/alloc-wait", 100)
		r.Observe("pcie/alloc-wait", 300)
		r.Hist("pcie/alloc-wait").Add(300)
		if got := r.Hist("pcie/alloc-wait").Count(); got != 3 {
			t.Fatalf("hist count = %d, want 3", got)
		}

		// Every span family feeds a duration histogram automatically.
		eng.After(10*sim.Microsecond, func() { r.Span("dev/x", "read", 0, "") })
		eng.After(20*sim.Microsecond, func() { r.Span("dev/x", "read", 0, "") })
		eng.Run()

		var cb bytes.Buffer
		if err := obs.WriteMetricsCSV(&cb); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{
			"0,hist,pcie/alloc-wait,count,3",
			"0,hist,pcie/alloc-wait,min,100",
			"0,hist,pcie/alloc-wait,max,300",
			"0,hist,pcie/alloc-wait,sum,700",
			"0,hist,dev/x/read,count,2",
			"0,hist,dev/x/read,sum,30000",
			"0,hist,dev/x/read,min,10000",
			"0,hist,dev/x/read,max,20000",
		} {
			if !strings.Contains(cb.String(), want+"\n") {
				t.Errorf("missing CSV row %q in:\n%s", want, cb.String())
			}
		}

		if n := strings.Count(cb.String(), ",count,"); n != 2 {
			t.Errorf("exported %d histograms, want 2:\n%s", n, cb.String())
		}
		// Bucket rows back the reconstruction; quantiles carry the
		// log-bucket relative error bound.
		if !strings.Contains(cb.String(), "0,hist,dev/x/read,b") {
			t.Errorf("dev/x/read exported no buckets:\n%s", cb.String())
		}
		_, p99, _ := strings.Cut(cb.String(), "0,hist,dev/x/read,p99,")
		p99, _, _ = strings.Cut(p99, "\n")
		if v, err := strconv.ParseFloat(p99, 64); err != nil || v < 20000*(1-1.0/32) || v > 20000 {
			t.Errorf("p99 = %q, want ≈20000", p99)
		}
	})
}

func TestStationWaitHistogram(t *testing.T) {
	withCapture(t, func() {
		eng := sim.NewEngine()
		r := obs.Rec(eng)
		st := sim.NewStation(eng, 1)
		obs.ObserveStation(r, st, "stage")
		for i := 0; i < 3; i++ {
			st.Submit(sim.Millisecond, nil)
		}
		eng.Run()
		h := r.Hist("stage/wait")
		if h.Count() != 3 {
			t.Fatalf("wait hist count = %d, want 3", h.Count())
		}
		// Waits with one server and three simultaneous 1ms jobs: 0, 1ms, 2ms.
		if h.Min() != 0 || h.Max() != float64(2*sim.Millisecond) {
			t.Errorf("wait hist min/max = %g/%g, want 0/2e6", h.Min(), h.Max())
		}
	})
}

// TestWriteFileAtomic pins the artifact contract: a successful write
// replaces the file whole, and a writer that fails part-way leaves an
// existing file byte-identical with no temporary file beside it.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "results.txt")
	old := []byte("previous run\n")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := obs.WriteFileAtomic(path, func(w io.Writer) error {
		if _, err := io.WriteString(w, "half a"); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failing writer returned %v, want %v", err, boom)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, old) {
		t.Errorf("failed write changed the file: %q", got)
	}
	if names, _ := os.ReadDir(dir); len(names) != 1 {
		t.Errorf("failed write left files behind: %v", names)
	}

	if err := obs.WriteFileAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "new run\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "new run\n" {
		t.Errorf("successful write produced %q", got)
	}
	if names, _ := os.ReadDir(dir); len(names) != 1 {
		t.Errorf("successful write left files behind: %v", names)
	}

	if err := obs.WriteFileAtomic(filepath.Join(dir, "no-such-dir", "x"), func(io.Writer) error {
		t.Error("writer called without a temporary file")
		return nil
	}); err == nil {
		t.Error("write into a missing directory succeeded")
	}
}
