package obs_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/swap"
)

// update rewrites the golden observability corpus instead of comparing:
//
//	go test ./internal/obs -run Golden -update
var update = flag.Bool("update", false, "rewrite golden observability corpus")

// goldenScenario runs a small fixed scenario exercising every recorder
// surface — device spans, swap-path retries, channel queueing, a PCIe link,
// and a fault flap — and returns the sealed exports. The scenario is fully
// deterministic (no RNG), so the files under testdata must be byte-stable.
func goldenScenario(t *testing.T) (trace, csv []byte) {
	t.Helper()
	obs.Reset()
	restore := obs.Capture()
	defer func() {
		restore()
		obs.Reset()
	}()

	eng := sim.NewEngine()
	rec := obs.Rec(eng)
	rec.SetLabel("golden")

	fabric := pcie.NewFabric(eng)
	dev := device.New(eng, fabric, device.SpecTestbedSSD("ssd0"))
	backend := swap.NewDeviceBackend(eng, dev)
	ch := swap.NewChannel(eng, "vmA", 4)
	path := swap.NewPath(eng, backend, ch)
	path.Retry = true

	inj := faults.NewInjector(eng)
	inj.Register(dev)
	inj.Apply(faults.Schedule{Events: []faults.Event{{
		At: 2 * sim.Millisecond, Target: "ssd0", Kind: faults.Flap,
		Duration: 5 * sim.Millisecond,
	}}})

	// 32 chained swap-ins with interleaved swap-outs: issue the next op when
	// the previous completes, so some land inside the flap window.
	var issue func(i int)
	issue = func(i int) {
		if i >= 32 {
			return
		}
		ex := swap.Extent{Pages: 4, Sequential: true}
		if i%5 == 4 {
			ex.Write = true
			path.SwapOut(ex, func(sim.Duration) { issue(i + 1) })
			return
		}
		path.SwapIn(ex, func(sim.Duration) { issue(i + 1) })
	}
	eng.After(0, func() { issue(0) })
	eng.Run()

	var tb, cb bytes.Buffer
	if err := obs.WriteTrace(&tb); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteMetricsCSV(&cb); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), cb.Bytes()
}

// diffLines renders the first divergences so a golden failure points at the
// drifted line (same convention as internal/experiments).
func diffLines(want, got []byte) string {
	wl := strings.Split(string(want), "\n")
	gl := strings.Split(string(got), "\n")
	var b strings.Builder
	shown := 0
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w == g {
			continue
		}
		fmt.Fprintf(&b, "line %d:\n  golden: %s\n  got:    %s\n", i+1, w, g)
		shown++
		if shown >= 8 {
			fmt.Fprintf(&b, "... (further differences suppressed)\n")
			break
		}
	}
	return b.String()
}

// TestGoldenObservability locks the trace and metrics exports of the fixed
// scenario to checked-in files. Drift in event ordering, timestamp
// formatting, track naming, or export layout fails here with a line diff;
// after an intentional change regenerate with -update and review the diff.
func TestGoldenObservability(t *testing.T) {
	trace, csv := goldenScenario(t)
	files := []struct {
		name string
		got  []byte
	}{
		{"scenario.trace.json", trace},
		{"scenario.metrics.csv", csv},
	}
	for _, f := range files {
		path := filepath.Join("testdata", f.name)
		if *update {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, f.got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("no golden file %s (run: go test ./internal/obs -run Golden -update): %v", path, err)
		}
		if !bytes.Equal(want, f.got) {
			t.Errorf("%s drifted from golden:\n%s", path, diffLines(want, f.got))
		}
	}
}

// TestGoldenObservabilityStable reruns the scenario and demands bytes
// identical to the first run — the in-process determinism half of the
// byte-identical-across-reruns acceptance gate (the CLI half lives in
// cmd_integration_test.go).
func TestGoldenObservabilityStable(t *testing.T) {
	t1, c1 := goldenScenario(t)
	t2, c2 := goldenScenario(t)
	if !bytes.Equal(t1, t2) {
		t.Errorf("trace differs between identical runs:\n%s", diffLines(t1, t2))
	}
	if !bytes.Equal(c1, c2) {
		t.Errorf("metrics CSV differs between identical runs:\n%s", diffLines(c1, c2))
	}
}
