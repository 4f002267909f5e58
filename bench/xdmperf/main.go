// Command xdmperf times the simulator end to end and per layer on one named
// workload, and checks every output it times. Run it from the repository
// root, through bench/run.sh, which builds it:
//
//	bash bench/run.sh --workload node-swap --seed 1 --seconds 20 --trace 0
//
// A run is a closed loop with one client: rep k+1 starts when rep k ends,
// and each rep calls experiments.Run once per experiment of the workload.
// Rep 1 is cold (a fresh process with empty calibration caches) and gives
// setup_s; the warm reps give every other number. With --trace 1 the warm
// reps run twice, untraced then traced, and the run reports per-layer
// metrics and writes a Chrome trace and pprof profiles.
//
// The last line of standard output is the result:
//
//	{"correct":true,"attempted":9,"failed":0,"metrics":{"wall_s":{"value":2.5,"unit":"s"},...}}
//
// The line before it stamps the run with machine metadata, timing
// quartiles, the workload's modelled-design metric and output_sha256.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// spread is a timing's distribution over the warm reps.
type spread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// stamp describes the run and the machine it ran on.
type stamp struct {
	Workload     string            `json:"workload"`
	Seed         int64             `json:"seed"`
	Scale        int               `json:"scale"`
	Workers      int               `json:"workers"`
	ShardWorkers int               `json:"shard_workers"`
	ColdReps     int               `json:"cold_reps"`
	WarmReps     int               `json:"warm_reps"`
	TracedReps   int               `json:"traced_reps"`
	CPU          string            `json:"cpu"`
	NProc        int               `json:"nproc"`
	GOMAXPROCS   int               `json:"gomaxprocs"`
	Go           string            `json:"go"`
	Commit       string            `json:"commit"`
	GoldenCheck  bool              `json:"golden_checked"`
	OutputSHA256 string            `json:"output_sha256"`
	Model        map[string]metric `json:"model"`
	// Timings are as measured, before the probe's scaling: per warm rep,
	// plus the cold rep's wall time as setup_s.
	Timings map[string]spread `json:"timings"`
	// Probe is the host-speed probe's time, in seconds, and TimeScale the
	// factor it applied to every end-to-end host time.
	Probe     spread  `json:"probe_s"`
	TimeScale float64 `json:"time_scale"`
	// PeakRSSMB is the process's peak resident set (VmHWM) at the end of
	// the untraced reps.
	PeakRSSMB float64  `json:"peak_rss_mb"`
	Errors    []string `json:"errors,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xdmperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, " | "))
	seed := fs.Int64("seed", 1, "experiment seed (seed 1 is checked against the golden corpus)")
	seconds := fs.Int("seconds", 10, "measuring time in seconds; sets the fixed warm-rep count")
	traced := fs.Int("trace", 0, "1 = traced run: per-layer metrics, spans and profiles")
	out := fs.String("out", ".bench_out", "directory for the traced run's trace and profiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	switch {
	case !ok:
		fmt.Fprintf(stderr, "xdmperf: unknown -workload %q (want %s)\n", *name, strings.Join(names, " | "))
		return 2
	case *seed < 0:
		fmt.Fprintln(stderr, "xdmperf: -seed must be >= 0")
		return 2
	case *seconds < 1:
		fmt.Fprintln(stderr, "xdmperf: -seconds must be >= 1")
		return 2
	case *traced != 0 && *traced != 1:
		fmt.Fprintln(stderr, "xdmperf: -trace must be 0 or 1")
		return 2
	}
	if *traced == 1 {
		runtime.MemProfileRate = allocSampleRate
	}
	r, err := newRunner(w, *seed, ".")
	if err != nil {
		fmt.Fprintln(stderr, "xdmperf:", err)
		return 2
	}
	rep, err := measure(r, w.warmReps(*seconds), *traced == 1, *out)
	if err != nil {
		fmt.Fprintln(stderr, "xdmperf:", err)
		return 2
	}
	for _, e := range rep.stamp.Errors {
		fmt.Fprintln(stderr, "xdmperf: FAILED", e)
	}
	st, err := json.Marshal(map[string]stamp{"stamp": rep.stamp})
	if err != nil {
		fmt.Fprintln(stderr, "xdmperf:", err)
		return 2
	}
	res, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintln(stderr, "xdmperf:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n%s\n", st, res)
	if !rep.result.Correct {
		return 1
	}
	return 0
}

type report struct {
	result result
	stamp  stamp
}

// measure runs the cold rep and the warm reps, probing host speed before
// each and after the last, then, when traced, the warm reps again under
// tracing, and builds the report. End-to-end metrics come from untraced
// reps only, with host times at the probe's reference speed; a traced run
// reports the per-layer metrics, as measured, instead.
func measure(r *runner, warm int, traced bool, outDir string) (report, error) {
	p := &probe{}
	p.measure()
	cold := r.rep(1)
	var plain []sample
	for k := 0; k < warm; k++ {
		p.measure()
		plain = append(plain, r.rep(2+k))
	}
	p.measure()
	scale := p.scale()
	st := stamp{
		Workload: r.w.name, Seed: r.opts.Seed, Scale: r.opts.Scale,
		Workers: r.opts.Workers, ShardWorkers: r.opts.ShardWorkers,
		ColdReps: 1, WarmReps: warm,
		CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: commit(), GoldenCheck: r.golden != nil,
		Timings:   map[string]spread{"setup_s": spreadOf([]sample{cold}, wallOf)},
		Probe:     spreadOfValues(p.times),
		TimeScale: scale,
		PeakRSSMB: float64(peakRSS()) / 1e6,
	}
	metrics := map[string]metric{}
	for _, t := range []struct {
		name, unit string
		of         func(sample) float64
		scale      float64
	}{{"wall_s", "s", wallOf, scale}, {"cpu_s", "s", cpuOf, scale}, {"alloc_mb", "MB", allocOf, 1}} {
		sp := spreadOf(plain, t.of)
		st.Timings[t.name] = sp
		metrics[t.name] = metric{sp.Median * t.scale, t.unit}
	}
	metrics["setup_s"] = metric{cold.wall.Seconds() * scale, "s"}

	var tr *tracer
	if traced {
		var err error
		if tr, err = startTracer(); err != nil {
			return report{}, err
		}
		r.spans = tr.spans
		var tracedReps []sample
		for k := 0; k < warm; k++ {
			tracedReps = append(tracedReps, r.rep(2+warm+k))
			tr.engines.settle()
		}
		r.spans = nil
		if err := tr.stop(); err != nil {
			return report{}, err
		}
		st.TracedReps = len(tracedReps)
		st.Timings["traced_wall_s"] = spreadOf(tracedReps, wallOf)
		st.Timings["traced_cpu_s"] = spreadOf(tracedReps, cpuOf)
		if metrics, err = layerMetrics(r, tr, plain, tracedReps); err != nil {
			return report{}, err
		}
	}

	st.OutputSHA256 = r.outputSHA256()
	st.Errors = append(st.Errors, r.errs...)
	st.Model = map[string]metric{}
	correct := r.failed == 0
	if v, err := r.w.model.of(r.tables); err != nil {
		st.Errors = append(st.Errors, "model metric: "+err.Error())
		correct = false
	} else {
		st.Model[r.w.model.name] = metric{v, r.w.model.unit}
	}
	if tr != nil {
		if err := tr.writeArtifacts(outDir, r.w.name, st); err != nil {
			return report{}, fmt.Errorf("writing trace artifacts: %w", err)
		}
	}
	return report{
		result: result{Correct: correct, Attempted: r.attempted, Failed: r.failed, Metrics: metrics},
		stamp:  st,
	}, nil
}

func wallOf(s sample) float64  { return s.wall.Seconds() }
func cpuOf(s sample) float64   { return s.cpu.Seconds() }
func allocOf(s sample) float64 { return float64(s.alloc) / 1e6 }

// layerMetrics derives the per-layer metrics, per warm rep, from the traced
// reps, using the untraced reps as the reference for trace_overhead.
func layerMetrics(r *runner, tr *tracer, plain, traced []sample) (map[string]metric, error) {
	n := float64(len(traced))
	m := map[string]metric{}
	cpuNanos, allocBytes, err := tr.layerCosts()
	if err != nil {
		return nil, err
	}
	for _, l := range append(append([]string{}, layers...), otherBucket, bgBucket) {
		m["cpu_s."+l] = metric{float64(cpuNanos[l]) / 1e9 / n, "s"}
		m["alloc_mb."+l] = metric{float64(allocBytes[l]) / 1e6 / n, "MB"}
	}

	events := float64(tr.engines.events) / n
	m["sim.events"] = metric{events, "count"}
	m["sim.engines"] = metric{float64(tr.engines.engines) / n, "count"}
	plainWall := spreadOf(plain, wallOf).Median
	perEvent := 0.0
	if events > 0 {
		perEvent = plainWall * 1e9 / events
	}
	m["sim.host_ns_per_event"] = metric{perEvent, "ns"}

	var windows uint64
	var busy, shardWall, cell, wall time.Duration
	for _, s := range traced {
		windows += s.shard.Windows
		busy += s.shard.Busy
		shardWall += s.shard.Wall
		cell += s.cell
		wall += s.wall
	}
	m["sim.shard_windows"] = metric{float64(windows) / n, "count"}
	m["sim.shard_busy_s"] = metric{busy.Seconds() / n, "s"}
	// Every arena run has one shard per shard worker (experiments.Options).
	wait := time.Duration(r.opts.ShardWorkers)*shardWall - busy
	m["sim.shard_wait_s"] = metric{wait.Seconds() / n, "s"}
	m["sim.shard_parallelism"] = metric{ratio(busy, shardWall), "x"}
	m["experiments.cell_s"] = metric{cell.Seconds() / n, "s"}
	m["experiments.parallelism"] = metric{ratio(cell, wall), "x"}
	for _, id := range allExperiments() {
		m["exp_s."+id] = metric{tr.spans.total("experiments.Run", id).Seconds() / n, "s"}
	}
	m["render_s"] = metric{tr.spans.total("Table.Render", "").Seconds() / n, "s"}
	m["verify_s"] = metric{tr.spans.total("verify", "").Seconds() / n, "s"}
	tracedWall := spreadOf(traced, wallOf).Median
	m["trace_overhead"] = metric{tracedWall / plainWall, "x"}
	return m, nil
}

func ratio(a, b time.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// allExperiments lists every experiment any workload runs, so that every
// traced run reports the same exp_s.* metrics (zero where not run).
func allExperiments() []string {
	var ids []string
	for _, w := range workloads {
		ids = append(ids, w.exps...)
	}
	return ids
}

// spreadOf is the distribution of f over samples.
func spreadOf(samples []sample, f func(sample) float64) spread {
	xs := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = f(s)
	}
	return spreadOfValues(xs)
}

// spreadOfValues is the median and quartiles of xs, with quartiles as
// Python's statistics.quantiles(n=4) computes them.
func spreadOfValues(xs []float64) spread {
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	q := func(num int) float64 { // the num/4 quantile, exclusive method
		if len(xs) == 1 {
			return xs[0]
		}
		pos := float64(num*(len(xs)+1)) / 4
		j := int(pos)
		switch {
		case j < 1:
			return xs[0]
		case j >= len(xs):
			return xs[len(xs)-1]
		}
		return xs[j-1] + (pos-float64(j))*(xs[j]-xs[j-1])
	}
	return spread{Median: q(2), Q1: q(1), Q3: q(3), N: len(xs)}
}

// cpuModel reads the host CPU's model name, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, if it was built
// inside a git checkout.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}
