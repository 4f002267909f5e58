package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analyze"
)

// buildCmd compiles one of the repository's executables into dir.
func buildCmd(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	out, err := exec.Command("go", "build", "-o", bin, "./cmd/"+name).CombinedOutput()
	if err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

// checkUsageError runs xdmsim with args and fails unless it exits 2 with a
// usage line and want on stderr. Every run also carries an -o results file
// and a -latency stem whose per-run artifacts exist beforehand: a usage
// error must leave them byte-identical and no other file behind.
func checkUsageError(t *testing.T, bin, want string, args ...string) {
	t.Helper()
	dir := t.TempDir()
	old := []byte("previous run\n")
	files := []string{"results.txt"}
	for _, id := range []string{"fig3", "alg1", "cxlpool", "serve", "custom"} {
		files = append(files, "lat."+id+".json")
	}
	for _, f := range files {
		if err := os.WriteFile(filepath.Join(dir, f), old, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	args = append([]string{"-o", filepath.Join(dir, "results.txt"), "-latency", filepath.Join(dir, "lat.json")}, args...)
	cmd := exec.Command(bin, args...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Fatalf("%v exited %v, want exit code 2\n%s", args, err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "usage:") || !strings.Contains(stderr.String(), want) {
		t.Errorf("stderr missing usage line or %q:\n%s", want, stderr.String())
	}
	for _, f := range files {
		if got, _ := os.ReadFile(filepath.Join(dir, f)); !bytes.Equal(got, old) {
			t.Errorf("usage error changed %s: %q", f, got)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != len(files) {
		t.Errorf("usage error left %d files, want %d", len(entries), len(files))
	}
}

func TestXdmsimCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildCmd(t, t.TempDir(), "xdmsim")

	out, err := exec.Command(bin, "-list").Output()
	if err != nil {
		t.Fatalf("-list: %v", err)
	}
	for _, id := range []string{"tab6", "fig19", "ablation", "cxl"} {
		if !strings.Contains(string(out), id) {
			t.Errorf("-list missing %s", id)
		}
	}

	out, err = exec.Command(bin, "-exp", "fig3").Output()
	if err != nil {
		t.Fatalf("-exp fig3: %v", err)
	}
	if !strings.Contains(string(out), "PCIe 4.0") {
		t.Error("fig3 output incomplete")
	}

	out, err = exec.Command(bin, "-exp", "fig8", "-scale", "16", "-seed", "2").Output()
	if err != nil {
		t.Fatalf("-exp fig8: %v", err)
	}
	if !strings.Contains(string(out), "MEI pick") {
		t.Error("fig8 output incomplete")
	}
}

func TestTracegenCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildCmd(t, t.TempDir(), "tracegen")

	out, err := exec.Command(bin, "-kind", "pages", "-workload", "bert", "-n", "100").Output()
	if err != nil {
		t.Fatalf("pages: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if lines[0] != "index,page,write" || len(lines) != 101 {
		t.Fatalf("pages CSV malformed: header=%q lines=%d", lines[0], len(lines))
	}

	out, err = exec.Command(bin, "-kind", "features").Output()
	if err != nil {
		t.Fatalf("features: %v", err)
	}
	if c := strings.Count(string(out), "\n"); c != 18 { // header + 17 workloads
		t.Fatalf("features CSV has %d lines, want 18", c)
	}

	out, err = exec.Command(bin, "-kind", "cluster", "-trace", "2018", "-n", "50").Output()
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	if c := strings.Count(string(out), "\n"); c != 51 {
		t.Fatalf("cluster CSV has %d lines, want 51", c)
	}

	if err := exec.Command(bin, "-kind", "bogus").Run(); err == nil {
		t.Error("unknown kind should exit nonzero")
	}
}

// TestXdmbenchCLI runs the full evaluation, xdmsim's default mode: the -o
// file holds exactly the stdout bytes, and the -trace/-metrics stems expand
// to one file per experiment.
func TestXdmbenchCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and runs the evaluation")
	}
	dir := t.TempDir()
	bin := buildCmd(t, dir, "xdmsim")
	outFile := filepath.Join(dir, "results.txt")
	traceStem := filepath.Join(dir, "trace.json")
	metricsStem := filepath.Join(dir, "metrics.csv")
	cmd := exec.Command(bin, "-o", outFile, "-scale", "16",
		"-trace", traceStem, "-metrics", metricsStem)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("xdmsim: %v\n%s", err, stderr.String())
	}
	data := string(out)
	if !strings.HasPrefix(data, "xDM reproduction — full evaluation (scale=16 seed=1)") {
		t.Errorf("missing evaluation header:\n%.200s", data)
	}
	for _, id := range []string{"tab6", "tab7", "fig14", "fig19-sim"} {
		if !strings.Contains(data, id) {
			t.Errorf("results missing %s", id)
		}
	}
	if file, err := os.ReadFile(outFile); err != nil || !bytes.Equal(file, out) {
		t.Errorf("-o file differs from stdout (read error %v)", err)
	}
	if !strings.Contains(stderr.String(), "[tab6 done in") || !strings.Contains(stderr.String(), "total wall-clock") {
		t.Errorf("stderr missing timing reports:\n%s", stderr.String())
	}
	// -trace/-metrics stems expand to one file per experiment:
	// trace.json → trace.tab6.json, trace.fig14.json, ...
	for _, id := range []string{"tab6", "fig14"} {
		tracePath := filepath.Join(dir, "trace."+id+".json")
		raw, err := os.ReadFile(tracePath)
		if err != nil {
			t.Fatalf("per-experiment trace missing: %v", err)
		}
		var doc map[string]any
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Errorf("%s is not valid JSON: %v", tracePath, err)
		}
		if _, err := os.Stat(filepath.Join(dir, "metrics."+id+".csv")); err != nil {
			t.Errorf("per-experiment metrics missing: %v", err)
		}
	}
}

func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the example binaries")
	}
	cases := []struct {
		dir  string
		want string
	}{
		{"quickstart", "swap performance speedup"},
		{"graphanalytics", "MEI backend selection"},
		{"aiinference", "offload"},
		{"datacenter", "task throughput"},
		{"dynamicswitch", "warm switch"},
	}
	for _, c := range cases {
		out, err := exec.Command("go", "run", "./examples/"+c.dir).CombinedOutput()
		if err != nil {
			t.Fatalf("example %s: %v\n%s", c.dir, err, out)
		}
		if !strings.Contains(string(out), c.want) {
			t.Errorf("example %s output missing %q:\n%s", c.dir, c.want, out)
		}
	}
}

func TestXdmsimCustomSpecs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	bin := buildCmd(t, dir, "xdmsim")
	specFile := filepath.Join(dir, "specs.json")
	spec := `[{"Name":"custom-app","Class":"compute","FootprintPages":1024,
		"AnonFraction":0.9,"SegmentLen":64,"SeqShare":0.4,"RunLen":8,
		"HotShare":0.2,"HotProb":0.7,"WriteFraction":0.3,
		"ComputePerAccess":200,"MainAccesses":6000,"Threads":2}]`
	if err := os.WriteFile(specFile, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, "-custom", specFile, "-scale", "2",
		"-metrics", filepath.Join(dir, "m.csv")).Output()
	if err != nil {
		t.Fatalf("-custom: %v", err)
	}
	if !strings.Contains(string(out), "custom-app") || !strings.Contains(string(out), "speedup") {
		t.Fatalf("custom output incomplete:\n%s", out)
	}
	if _, err := os.Stat(filepath.Join(dir, "m.custom.csv")); err != nil {
		t.Errorf("-metrics stem under -custom: %v", err)
	}
	// Invalid spec file exits nonzero.
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte("nope"), 0o644)
	if err := exec.Command(bin, "-custom", bad).Run(); err == nil {
		t.Error("invalid spec file accepted")
	}
}

// TestXdmsimFlagValidation pins the exit-2 contract: every malformed flag,
// mode conflict and unusable output path is reported with a usage line
// before any output is written.
func TestXdmsimFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	bin := buildCmd(t, dir, "xdmsim")
	cases := []struct {
		name string
		want string
		args []string
	}{
		{"zero scale", "-scale", []string{"-exp", "fig3", "-scale", "0"}},
		{"negative scale", "-scale", []string{"-exp", "fig3", "-scale", "-4"}},
		{"negative seed", "-seed", []string{"-exp", "fig3", "-seed", "-1"}},
		{"zero workers", "-workers", []string{"-exp", "fig3", "-workers", "0"}},
		{"zero shards", "-shards", []string{"-exp", "fig3", "-shards", "0"}},
		{"unknown format", "-format", []string{"-exp", "fig3", "-format", "xml"}},
		{"unknown experiment", "unknown experiment", []string{"-exp", "fig3,bogus"}},
		{"no experiment selected", "no experiments", []string{"-exp", ","}},
		{"positional argument", "unexpected argument", []string{"-exp", "fig3", "fig8"}},
		{"output is a directory", "is a directory", []string{"-exp", "fig3", "-o", dir}},
		{"serve negative slo", "-slo", []string{"-serve", "poisson:100", "-slo", "-1s"}},
		{"serve negative duration", "-duration", []string{"-serve", "poisson:100", "-duration", "-2s"}},
		{"serve unknown trace year", "arrival spec", []string{"-serve", "trace:2019:100"}},
		{"serve with custom", "cannot be combined", []string{"-serve", "poisson:100", "-custom", "specs.json"}},
		{"capacity with exp", "cannot be combined", []string{"-capacity", "-exp", "tab6"}},
		{"capacity with serve", "cannot be combined", []string{"-capacity", "-serve", "poisson:100"}},
		{"capacity with latency", "cannot be combined", []string{"-capacity"}},
		{"capacity with csv format", "-format csv", []string{"-capacity", "-format", "csv"}},
		{"custom with exp", "cannot be combined", []string{"-exp", "fig3", "-custom", "specs.json"}},
		{"list with exp", "cannot be combined", []string{"-exp", "fig3", "-list"}},
		{"metrics stem named json", "-metrics", []string{"-exp", "fig3", "-metrics", filepath.Join(dir, "m.json")}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			checkUsageError(t, bin, c.want, c.args...)
		})
	}
}

// TestXdmsimObservabilityFlagValidation pins the exit-2 contract for the
// per-run artifact stems: a -trace or -metrics stem in a missing directory
// is rejected with a usage line before any simulation runs.
func TestXdmsimObservabilityFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	bin := buildCmd(t, dir, "xdmsim")
	cases := []struct {
		name string
		want string
		args []string
	}{
		{"unwritable trace path", "no-such-dir", []string{"-exp", "fig3", "-trace", filepath.Join(dir, "no-such-dir", "t.json")}},
		{"unwritable metrics path", "no-such-dir", []string{"-exp", "fig3", "-metrics", filepath.Join(dir, "no-such-dir", "m.csv")}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			checkUsageError(t, bin, c.want, c.args...)
		})
	}
}

// TestPolicyFlagCLI pins the -policy surface: a valid spec runs and changes
// placement-sensitive output, and every malformed spec the grammar rejects
// is a usage failure (exit 2) naming the offense — never a crash deep inside
// a simulation.
func TestPolicyFlagCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	sim := buildCmd(t, t.TempDir(), "xdmsim")

	out, err := exec.Command(sim, "-exp", "alg1", "-scale", "16", "-policy", "best-fit").Output()
	if err != nil {
		t.Fatalf("-policy best-fit: %v", err)
	}
	if !strings.Contains(string(out), "Algorithm 1") {
		t.Errorf("alg1 output incomplete under -policy:\n%s", out)
	}

	bad := []struct {
		name string
		spec string
	}{
		{"unknown base", "first-fit"},
		{"oversub below range", "oversub:0.5"},
		{"oversub not a number", "oversub:lots"},
		{"empty mix", "mix:"},
		{"mix unknown prioritizer", "mix:bogus=1"},
		{"mix duplicate", "mix:load=1,load=2"},
		{"unknown extender", "best-fit+sometimes"},
		{"duplicate extender", "one-shot+one-shot"},
	}
	for _, c := range bad {
		c := c
		t.Run(c.name, func(t *testing.T) {
			checkUsageError(t, sim, "policy spec", "-exp", "alg1", "-scale", "16", "-policy", c.spec)
		})
	}
}

// TestFabricFlagCLI pins the -fabric surface: a valid topology spec runs
// the pooled-memory experiment and changes its header, and every malformed
// spec the grammar rejects is a usage failure (exit 2) carrying the
// hosts=N[,...] grammar — never a panic inside a cell.
func TestFabricFlagCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	sim := buildCmd(t, t.TempDir(), "xdmsim")

	out, err := exec.Command(sim, "-exp", "cxlpool", "-scale", "16", "-fabric", "hosts=2,pool=1,hops=2").Output()
	if err != nil {
		t.Fatalf("-fabric hosts=2,pool=1,hops=2: %v", err)
	}
	if !strings.Contains(string(out), "2 hosts") || !strings.Contains(string(out), "2 switch hops") {
		t.Errorf("cxlpool header does not reflect -fabric topology:\n%s", out)
	}

	bad := []struct {
		name string
		spec string
	}{
		{"missing hosts", "pool=1"},
		{"not key=value", "hosts"},
		{"hosts out of range", "hosts=0"},
		{"duplicate field", "hosts=4,hosts=8"},
		{"negative pool", "hosts=4,pool=-1"},
		{"slab out of range", "hosts=4,slab=8"},
		{"hops out of range", "hosts=4,hops=9"},
		{"unknown placer", "hosts=4,placer=switch"},
		{"unknown field", "hosts=4,rack=2"},
	}
	for _, c := range bad {
		c := c
		t.Run(c.name, func(t *testing.T) {
			checkUsageError(t, sim, "hosts=N", "-exp", "cxlpool", "-scale", "16", "-fabric", c.spec)
		})
	}
}

func TestXdmsimFaultsExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and runs the fault scenarios")
	}
	bin := buildCmd(t, t.TempDir(), "xdmsim")
	run := func() string {
		out, err := exec.Command(bin, "-exp", "faults", "-scale", "8", "-seed", "1").Output()
		if err != nil {
			t.Fatalf("-exp faults: %v", err)
		}
		return string(out)
	}
	first := run()
	for _, want := range []string{"xdm-failover", "static", "MTTR", "avail", "flap", "crash"} {
		if !strings.Contains(first, want) {
			t.Errorf("faults output missing %q:\n%s", want, first)
		}
	}
	// Reproducibility is a CLI-level contract: same seed, same bytes.
	if second := run(); second != first {
		t.Fatalf("same seed produced different faults output:\n--- first\n%s\n--- second\n%s", first, second)
	}
}

// traceEvent is the subset of a Chrome trace event the CLI tests inspect.
type traceEvent struct {
	Ph  string  `json:"ph"`
	Pid int     `json:"pid"`
	Tid int     `json:"tid"`
	Ts  float64 `json:"ts"`
}

func TestXdmsimObservabilityOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and runs an experiment")
	}
	dir := t.TempDir()
	bin := buildCmd(t, dir, "xdmsim")

	run := func(workers string) (trace, metrics []byte) {
		out, err := exec.Command(bin, "-exp", "fig2b", "-scale", "8", "-workers", workers,
			"-trace", filepath.Join(dir, "out.json"), "-metrics", filepath.Join(dir, "out.csv")).CombinedOutput()
		if err != nil {
			t.Fatalf("xdmsim -trace/-metrics: %v\n%s", err, out)
		}
		trace, err = os.ReadFile(filepath.Join(dir, "out.fig2b.json"))
		if err != nil {
			t.Fatal(err)
		}
		metrics, err = os.ReadFile(filepath.Join(dir, "out.fig2b.csv"))
		if err != nil {
			t.Fatal(err)
		}
		return trace, metrics
	}

	trace1, metrics1 := run("1")

	var doc struct {
		DisplayTimeUnit string       `json:"displayTimeUnit"`
		TraceEvents     []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace1, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	// Within each (pid, tid) track, timestamps must be monotonically
	// non-decreasing — the contract Perfetto relies on for rendering.
	last := map[[2]int]float64{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		key := [2]int{ev.Pid, ev.Tid}
		if prev, ok := last[key]; ok && ev.Ts < prev {
			t.Fatalf("track pid=%d tid=%d: ts %g after %g", ev.Pid, ev.Tid, ev.Ts, prev)
		}
		last[key] = ev.Ts
	}
	if !strings.HasPrefix(string(metrics1), "# schema: xdm-metrics/2\nrun,type,name,key,value\n") {
		t.Errorf("metrics CSV header malformed: %q", strings.SplitN(string(metrics1), "\n", 2)[0])
	}

	// Byte-identical across reruns and across worker counts.
	trace2, metrics2 := run("1")
	if !bytes.Equal(trace1, trace2) || !bytes.Equal(metrics1, metrics2) {
		t.Error("outputs differ between identical reruns")
	}
	trace8, metrics8 := run("8")
	if !bytes.Equal(trace1, trace8) {
		t.Error("trace differs between -workers=1 and -workers=8")
	}
	if !bytes.Equal(metrics1, metrics8) {
		t.Error("metrics differ between -workers=1 and -workers=8")
	}
}

// TestXdmbenchFormats renders the full evaluation through xdmsim -format.
func TestXdmbenchFormats(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	bin := buildCmd(t, dir, "xdmsim")
	for _, format := range []string{"md", "csv"} {
		outFile := filepath.Join(dir, "results."+format)
		if out, err := exec.Command(bin, "-o", outFile, "-scale", "32", "-format", format).CombinedOutput(); err != nil {
			t.Fatalf("format %s: %v\n%s", format, err, out)
		}
		data, err := os.ReadFile(outFile)
		if err != nil {
			t.Fatal(err)
		}
		switch format {
		case "md":
			if !strings.Contains(string(data), "| --- |") {
				t.Error("markdown output malformed")
			}
		case "csv":
			if !strings.Contains(string(data), "#tab6,") {
				t.Error("csv output malformed")
			}
		}
	}
}

// TestXdmbenchLatencySummaries covers -exp experiment filtering and the
// -latency stem, then drives xdmtrace over the emitted artifacts: an
// identical rerun must diff clean (exit 0) and an injected p99 regression
// must gate (exit 1).
func TestXdmbenchLatencySummaries(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and runs an experiment")
	}
	dir := t.TempDir()
	bin := buildCmd(t, dir, "xdmsim")
	xdmtrace := buildCmd(t, dir, "xdmtrace")

	latStem := filepath.Join(dir, "lat.json")
	metricsStem := filepath.Join(dir, "m.csv")
	traceStem := filepath.Join(dir, "t.json")
	out, err := exec.Command(bin, "-scale", "16", "-exp", "fig2b",
		"-latency", latStem, "-metrics", metricsStem, "-trace", traceStem).CombinedOutput()
	if err != nil {
		t.Fatalf("xdmsim -exp fig2b: %v\n%s", err, out)
	}
	if strings.Contains(string(out), "#tab6") {
		t.Error("-exp fig2b still ran tab6")
	}
	latPath := filepath.Join(dir, "lat.fig2b.json")
	raw, err := os.ReadFile(latPath)
	if err != nil {
		t.Fatalf("per-experiment latency summary missing: %v", err)
	}
	sum, err := analyze.ParseSummary(raw)
	if err != nil {
		t.Fatalf("latency summary does not parse: %v", err)
	}
	if sum.Label != "fig2b" || sum.Stages == nil || sum.Stages.Ops == 0 {
		t.Fatalf("latency summary incomplete: label=%q stages=%+v", sum.Label, sum.Stages)
	}

	// Offline summarize of the written metrics+trace must agree with the
	// in-process summary xdmsim emitted.
	sumPath := filepath.Join(dir, "offline.json")
	out, err = exec.Command(xdmtrace, "summarize", filepath.Join(dir, "m.fig2b.csv"),
		"-trace", filepath.Join(dir, "t.fig2b.json"), "-label", "fig2b",
		"-format", "json", "-o", sumPath).CombinedOutput()
	if err != nil {
		t.Fatalf("xdmtrace summarize: %v\n%s", err, out)
	}
	out, err = exec.Command(xdmtrace, "diff", latPath, sumPath).CombinedOutput()
	if err != nil {
		t.Fatalf("identical diff should exit 0: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "no regressions") {
		t.Errorf("clean diff output missing confirmation:\n%s", out)
	}

	// The text rendering includes the stage attribution table.
	out, err = exec.Command(xdmtrace, "summarize", filepath.Join(dir, "m.fig2b.csv"),
		"-trace", filepath.Join(dir, "t.fig2b.json")).CombinedOutput()
	if err != nil {
		t.Fatalf("xdmtrace summarize text: %v\n%s", err, out)
	}
	for _, want := range []string{"stage attribution", "transfer", "arbitrate", "e2e"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("text summary missing %q:\n%s", want, out)
		}
	}

	// Inject a 2x p99 regression into one histogram; diff must exit 1.
	bad := *sum
	bad.Hists = append([]analyze.HistStats(nil), sum.Hists...)
	injected := false
	for i := range bad.Hists {
		if bad.Hists[i].P99 > 0 {
			bad.Hists[i].P99 *= 2
			injected = true
			break
		}
	}
	if !injected {
		t.Fatal("no nonzero p99 to regress")
	}
	badPath := filepath.Join(dir, "regressed.json")
	data, err := bad.Render()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(badPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(xdmtrace, "diff", latPath, badPath)
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err = cmd.Run()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("regressed diff exited %v, want exit code 1\n%s%s", err, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "REGRESSED") || !strings.Contains(stderr.String(), "regressed") {
		t.Errorf("regression not reported:\nstdout:\n%s\nstderr:\n%s", stdout.String(), stderr.String())
	}
	// A loose enough threshold tolerates the same delta.
	if out, err := exec.Command(xdmtrace, "diff", latPath, badPath, "-rel", "1.5").CombinedOutput(); err != nil {
		t.Errorf("diff -rel 1.5 should tolerate a 2x delta: %v\n%s", err, out)
	}
}

// TestXdmtraceValidation pins the exit-2 contract: missing or unparseable
// artifacts, schema mismatches between diff inputs, and usage errors.
func TestXdmtraceValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	bin := buildCmd(t, dir, "xdmtrace")

	garbage := filepath.Join(dir, "garbage.csv")
	os.WriteFile(garbage, []byte("this is not an artifact\n"), 0o644)
	v1 := filepath.Join(dir, "v1.json")
	os.WriteFile(v1, []byte(`{"schema":"xdm-latency-summary/1","source_schema":"xdm-metrics/1","hists":[],"utils":[]}`+"\n"), 0o644)
	v2 := filepath.Join(dir, "v2.json")
	os.WriteFile(v2, []byte(`{"schema":"xdm-latency-summary/1","source_schema":"xdm-metrics/2","hists":[],"utils":[]}`+"\n"), 0o644)
	badSchema := filepath.Join(dir, "future.json")
	os.WriteFile(badSchema, []byte(`{"schema":"xdm-latency-summary/99","hists":[]}`+"\n"), 0o644)

	cases := []struct {
		name    string
		args    []string
		wantMsg string
	}{
		{"no subcommand", nil, "usage:"},
		{"unknown subcommand", []string{"frobnicate"}, "unknown subcommand"},
		{"summarize no args", []string{"summarize"}, "usage:"},
		{"summarize missing file", []string{"summarize", filepath.Join(dir, "nope.csv")}, "no such file"},
		{"summarize garbage", []string{"summarize", garbage}, "metrics CSV"},
		{"summarize bad format", []string{"summarize", garbage, "-format", "xml"}, "-format"},
		{"diff one arg", []string{"diff", v2}, "usage:"},
		{"diff missing file", []string{"diff", v2, filepath.Join(dir, "nope.json")}, "no such file"},
		{"diff garbage", []string{"diff", v2, garbage}, "summary JSON"},
		{"diff source schema mismatch", []string{"diff", v1, v2}, "schema mismatch"},
		{"diff unsupported summary version", []string{"diff", v2, badSchema}, "xdm-latency-summary/99"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			cmd := exec.Command(bin, c.args...)
			var stderr strings.Builder
			cmd.Stderr = &stderr
			err := cmd.Run()
			ee, ok := err.(*exec.ExitError)
			if !ok || ee.ExitCode() != 2 {
				t.Fatalf("%v exited %v, want exit code 2\n%s", c.args, err, stderr.String())
			}
			if !strings.Contains(stderr.String(), c.wantMsg) {
				t.Errorf("stderr missing %q:\n%s", c.wantMsg, stderr.String())
			}
		})
	}
}

// TestXdmsimServe drives the open-loop serving mode: a summary table on
// stdout, byte-identical across reruns, with exit-2 validation on every bad
// flag the ISSUE names (bad arrival spec, negative RPS, SLO <= 0).
func TestXdmsimServe(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and runs a serving window")
	}
	dir := t.TempDir()
	bin := buildCmd(t, dir, "xdmsim")

	run := func() string {
		out, err := exec.Command(bin, "-serve", "flash:100:4:1:1", "-slo", "100ms", "-duration", "3s",
			"-scale", "8", "-seed", "3", "-trace", filepath.Join(dir, "t.json")).Output()
		if err != nil {
			t.Fatalf("-serve: %v", err)
		}
		return string(out)
	}
	first := run()
	for _, want := range []string{"open-loop serving", "offered", "admitted",
		"goodput", "placement delay p50/p95/p99", "max queue depth"} {
		if !strings.Contains(first, want) {
			t.Errorf("serve output missing %q:\n%s", want, first)
		}
	}
	if second := run(); second != first {
		t.Fatalf("same seed produced different serve output:\n--- first\n%s\n--- second\n%s", first, second)
	}
	if _, err := os.Stat(filepath.Join(dir, "t.serve.json")); err != nil {
		t.Errorf("-trace stem under -serve: %v", err)
	}

	cases := []struct {
		name string
		args []string
	}{
		{"bad arrival kind", []string{"-serve", "bogus:100"}},
		{"negative rps", []string{"-serve", "poisson:-5"}},
		{"malformed rps", []string{"-serve", "poisson:fast"}},
		{"zero slo", []string{"-serve", "poisson:100", "-slo", "0s"}},
		{"negative slo", []string{"-serve", "poisson:100", "-slo", "-10ms"}},
		{"zero duration", []string{"-serve", "poisson:100", "-duration", "0s"}},
		{"serve with exp", []string{"-serve", "poisson:100", "-exp", "fig3"}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			checkUsageError(t, bin, "xdmsim: ", c.args...)
		})
	}
}

// TestXdmbenchCapacity runs the automated capacity sweep end to end: the
// ramp must find the knee (OVERLOAD verdict plus a finite max) for both
// configurations, xdm must sustain more than static, and the report must be
// byte-identical at -workers 1 and 8.
func TestXdmbenchCapacity(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and runs the capacity ramps")
	}
	dir := t.TempDir()
	bin := buildCmd(t, dir, "xdmsim")

	run := func(workers string) string {
		outFile := filepath.Join(dir, "cap."+workers+".txt")
		if out, err := exec.Command(bin, "-capacity", "-scale", "8",
			"-workers", workers, "-o", outFile).CombinedOutput(); err != nil {
			t.Fatalf("-capacity -workers %s: %v\n%s", workers, err, out)
		}
		data, err := os.ReadFile(outFile)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	report := run("1")
	for _, want := range []string{"## capacity: static-ssd", "## capacity: xdm",
		"OVERLOAD", "max sustainable:"} {
		if !strings.Contains(report, want) {
			t.Errorf("capacity report missing %q:\n%s", want, report)
		}
	}
	// Both knees are finite and xdm's is strictly higher: parse the
	// "max sustainable: N req/s" line under each section.
	knee := func(section string) float64 {
		i := strings.Index(report, "## capacity: "+section)
		if i < 0 {
			t.Fatalf("no section %q", section)
		}
		rest := report[i:]
		j := strings.Index(rest, "max sustainable: ")
		if j < 0 {
			t.Fatalf("section %q has no max sustainable line", section)
		}
		var v float64
		if _, err := fmt.Sscanf(rest[j:], "max sustainable: %f req/s", &v); err != nil {
			t.Fatalf("section %q: unparseable knee: %v", section, err)
		}
		return v
	}
	s, x := knee("static-ssd"), knee("xdm")
	if s <= 0 || x <= 0 || x <= s {
		t.Errorf("knees static=%.1f xdm=%.1f; want both finite nonzero and xdm strictly higher", s, x)
	}
	if parallel := run("8"); parallel != report {
		t.Fatal("capacity report differs between -workers 1 and -workers 8")
	}
}
