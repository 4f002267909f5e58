// Command xdmsim reproduces the paper's evaluation: every table and figure
// plus the ablation study by default, or the experiments -exp selects, the
// open-loop capacity sweep, one open-loop serving run, or user workload
// specs.
//
// Usage:
//
//	xdmsim [-exp all|id,id,...] [-format text|md|csv] [-o results.txt]
//	xdmsim -capacity | -serve poisson:400 [-slo 100ms] [-duration 5s] | -custom specs.json | -list
//
// Output goes to stdout and, with -o, to a file replaced atomically once the
// run succeeds. -trace, -metrics and -latency are stems: t.json becomes
// t.<id>.json per run, id being the experiment id, "serve" or "custom".
// Metrics are always CSV, so a .json -metrics stem is refused. Every flag
// is checked before any output is written; a bad one exits 2.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/analyze"
	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/place"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workload"
)

const usage = "usage: xdmsim [-exp all|id,... | -capacity | -serve <arrival-spec> [-slo D] [-duration D] | -custom specs.json | -list]" +
	" [-o file] [-format text|md|csv] [-scale N] [-seed N] [-workers N] [-shards N] [-policy spec] [-fabric spec]" +
	" [-invariants] [-trace t.json] [-metrics m.csv] [-latency l.json]"

// usageError reports a bad flag and exits 2, before any output is written.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "xdmsim: "+format+"\n", args...)
	fmt.Fprintln(os.Stderr, usage)
	os.Exit(2)
}

// fail reports a runtime error and exits 1.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "xdmsim:", err)
	os.Exit(1)
}

// renderers maps each -format value to its table renderer.
var renderers = map[string]func(*experiments.Table, io.Writer){
	"text": (*experiments.Table).Render,
	"md":   (*experiments.Table).RenderMarkdown,
	"csv":  (*experiments.Table).RenderCSV,
}

func main() {
	var (
		exp      = flag.String("exp", "all", "comma-separated experiment ids (fig1b..fig19, tab6, tab7, ablation, ...) or 'all'")
		out      = flag.String("o", "", "also write the output to this file (replaced atomically when the run succeeds)")
		format   = flag.String("format", "text", "table format: text | md | csv")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		capacity = flag.Bool("capacity", false, "run the open-loop capacity sweep (static vs xdm) instead of the experiments")
		custom   = flag.String("custom", "", "JSON file of workload specs to run through the pipeline")

		serveSpec = flag.String("serve", "",
			"open-loop serving mode: arrival spec (poisson:RPS | diurnal:RPS:AMP:PERIOD_S | flash:RPS:MULT:AT_S:FOR_S | trace:2017|2018:PEAK_RPS)")
		serveSLO = flag.Duration("slo", 100*time.Millisecond, "placement-delay SLO for -serve (must be > 0)")
		serveFor = flag.Duration("duration", 5*time.Second, "virtual arrival window for -serve (must be > 0; a drain of one quarter follows)")

		scale   = flag.Int("scale", 1, "fidelity divisor: 1 = full workload sizes, larger = faster")
		seed    = flag.Int64("seed", 1, "simulation seed")
		workers = flag.Int("workers", experiments.DefaultWorkers(),
			"worker goroutines per experiment grid (output is identical for any count)")
		shards = flag.Int("shards", 1,
			"shard workers inside each datacenter-arena simulation (output is identical for any count)")
		policy = flag.String("policy", "",
			"placement policy spec (alg1 | best-fit | worst-fit | one-shot | oversub[:F] | mix:name=w,... with +one-shot/+warm-pool extenders; empty keeps each experiment's default)")
		fabricFlag = flag.String("fabric", "",
			"CXL fabric topology spec ("+fabric.Usage()+"; empty keeps the fabric experiments' default)")
		invariants = flag.Bool("invariants", false,
			"enable runtime invariant checks; per-check counts are reported on stderr")

		arts artifacts
	)
	flag.StringVar(&arts.trace, "trace", "",
		"per-run Chrome trace-event JSON stem: t.json writes t.fig2b.json, t.serve.json, ... (open in Perfetto)")
	flag.StringVar(&arts.metrics, "metrics", "",
		"per-run counters/gauges/histograms/timelines CSV stem: m.csv writes m.fig2b.csv, ... (a .json stem is refused)")
	flag.StringVar(&arts.latency, "latency", "",
		"per-run latency-summary JSON stem (xdm-latency-summary/1, diffable with xdmtrace)")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, usage)
		flag.PrintDefaults()
	}
	flag.Parse()

	// Validation: one pass over every flag, finished before any output is
	// written, so a usage error never truncates an existing artifact.
	if flag.NArg() > 0 {
		usageError("unexpected argument %q", flag.Arg(0))
	}
	expSet := false
	flag.Visit(func(f *flag.Flag) { expSet = expSet || f.Name == "exp" })
	mode := ""
	for _, m := range []struct {
		name string
		on   bool
	}{{"exp", expSet}, {"capacity", *capacity}, {"serve", *serveSpec != ""}, {"custom", *custom != ""}, {"list", *list}} {
		if m.on && mode != "" {
			usageError("-%s cannot be combined with -%s", mode, m.name)
		}
		if m.on {
			mode = m.name
		}
	}
	if *scale <= 0 {
		usageError("-scale must be a positive integer (got %d)", *scale)
	}
	if *seed < 0 {
		usageError("-seed must be non-negative (got %d)", *seed)
	}
	if *workers <= 0 {
		usageError("-workers must be a positive integer (got %d)", *workers)
	}
	if *shards <= 0 {
		usageError("-shards must be a positive integer (got %d)", *shards)
	}
	if *serveSLO <= 0 {
		usageError("-slo must be a positive duration (got %v)", *serveSLO)
	}
	if *serveFor <= 0 {
		usageError("-duration must be a positive duration (got %v)", *serveFor)
	}
	renderTable, ok := renderers[*format]
	if !ok {
		usageError("unknown -format %q (want text, md or csv)", *format)
	}
	if *policy != "" {
		if _, err := place.ParsePolicy(*policy); err != nil {
			usageError("%v; -policy spec = alg1|best-fit|worst-fit|one-shot|oversub[:F]|mix:name=w,... (+one-shot/+warm-pool)", err)
		}
	}
	if *fabricFlag != "" {
		if _, err := fabric.ParseSpec(*fabricFlag); err != nil {
			usageError("%v; -fabric spec = %s", err, fabric.Usage())
		}
	}
	if mode == "capacity" && *format != "text" {
		usageError("-capacity prints its sweep as text; -format %s is not supported", *format)
	}
	if mode == "capacity" && arts != (artifacts{}) {
		usageError("-capacity cannot be combined with -trace/-metrics/-latency")
	}
	if filepath.Ext(arts.metrics) == ".json" {
		usageError("-metrics %s: the metrics artifact is CSV; name it .csv", arts.metrics)
	}
	var arrivals workload.ArrivalProcess
	if mode == "serve" {
		var err error
		if arrivals, err = workload.ParseArrival(*serveSpec, *seed); err != nil {
			usageError("%v", err)
		}
	}
	var ids []string
	if mode == "" || mode == "exp" {
		ids = experimentIDs(*exp)
	}
	errProbe := errors.New("probe")
	for _, p := range []string{*out, arts.trace, arts.metrics, arts.latency} {
		if p == "" {
			continue
		}
		if fi, err := os.Stat(p); err == nil && fi.IsDir() {
			usageError("%s is a directory", p)
		}
		// A write aborted before its rename proves the directory takes the
		// temporary file WriteFileAtomic needs, and never touches p itself.
		if err := obs.WriteFileAtomic(p, func(io.Writer) error { return errProbe }); !errors.Is(err, errProbe) {
			usageError("%s: %v", p, err)
		}
	}

	var specs []workload.Spec
	if mode == "custom" {
		f, err := os.Open(*custom)
		if err == nil {
			specs, err = workload.LoadSpecs(f)
			f.Close()
		}
		if err != nil {
			fail(err)
		}
	}
	if *invariants {
		invariant.SetHandler(invariant.PrintingHandler(os.Stderr, 20))
		invariant.Enable()
		defer func() {
			invariant.WriteReport(os.Stderr)
			if invariant.Violations() > 0 {
				fail(errors.New("simulation violated invariants"))
			}
		}()
	}
	if arts != (artifacts{}) {
		obs.Capture()
	}

	var results bytes.Buffer
	w := io.Writer(os.Stdout)
	if *out != "" {
		w = io.MultiWriter(os.Stdout, &results)
	}
	// emit renders one run's tables and writes its per-run artifacts.
	emit := func(id string, tables []experiments.Table) {
		for i := range tables {
			renderTable(&tables[i], w)
		}
		arts.write(id)
	}
	opts := experiments.Options{Scale: *scale, Seed: *seed, Workers: *workers, ShardWorkers: *shards, Policy: *policy, Fabric: *fabricFlag}
	switch mode {
	case "list":
		fmt.Fprintln(w, strings.Join(experiments.IDs(), "\n"))
	case "capacity":
		runCapacity(w, opts)
	case "serve":
		emit("serve", experiments.ServingOnce(opts, arrivals, sim.Duration(*serveSLO), sim.Duration(*serveFor)))
	case "custom":
		emit("custom", experiments.Custom(specs, opts))
	default:
		runExperiments(w, emit, ids, opts)
	}
	if *out != "" {
		if err := obs.WriteFileAtomic(*out, func(f io.Writer) error {
			_, err := results.WriteTo(f)
			return err
		}); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "results written to %s\n", *out)
	}
}

// experimentIDs resolves -exp to registered ids, exiting 2 on an unknown
// or empty selection.
func experimentIDs(exp string) []string {
	all := experiments.IDs()
	if exp == "all" {
		return all
	}
	var ids []string
	for _, id := range strings.Split(exp, ",") {
		if id = strings.TrimSpace(id); id == "" {
			continue
		}
		if !slices.Contains(all, id) {
			usageError("unknown experiment %q in -exp; -list shows ids", id)
		}
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		usageError("-exp selected no experiments")
	}
	return ids
}

// runExperiments runs the selected experiments in order under the
// evaluation header, reporting host time on stderr.
func runExperiments(w io.Writer, emit func(string, []experiments.Table), ids []string, opts experiments.Options) {
	fmt.Fprintf(w, "xDM reproduction — full evaluation (scale=%d seed=%d)\n\n", opts.Scale, opts.Seed)
	experiments.ResetGridCellTime()
	sim.ResetShardRunTotals()
	wallStart := time.Now()
	for _, id := range ids {
		start := time.Now()
		tables, _ := experiments.Run(id, opts)
		emit(id, tables)
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", id, time.Since(start).Round(time.Millisecond))
	}
	wall := time.Since(wallStart)
	// Aggregate time spent inside grid cells: what a fully serial run would
	// cost. cell/wall is the average number of cells in flight.
	cell := experiments.GridCellTime()
	fmt.Fprintf(os.Stderr, "total wall-clock %v with %d workers (aggregate cell time %v",
		wall.Round(time.Millisecond), opts.Workers, cell.Round(time.Millisecond))
	if wall > 0 && cell > 0 {
		fmt.Fprintf(os.Stderr, ", %.2fx effective parallelism", cell.Seconds()/wall.Seconds())
	}
	fmt.Fprintln(os.Stderr, ")")
	reportShardTotals()
}

// runCapacity ramps every serving and arena configuration to its knee.
func runCapacity(w io.Writer, opts experiments.Options) {
	start := time.Now()
	fmt.Fprintf(w, "xDM open-loop capacity sweep (scale=%d seed=%d)\n\n", opts.Scale, opts.Seed)
	sweeps := append(experiments.ServingSweeps(opts), experiments.ArenaSweeps(opts)...)
	sweeps = append(sweeps, experiments.PolicyArenaSweeps(opts)...)
	sim.ResetShardRunTotals()
	fmt.Fprint(w, serve.RenderCapacity(experiments.Capacity(opts, sweeps)))
	fmt.Fprintf(os.Stderr, "[capacity sweep done in %v with %d workers]\n",
		time.Since(start).Round(time.Millisecond), opts.Workers)
	reportShardTotals()
}

// reportShardTotals summarizes sharded-kernel execution on stderr: events,
// cross-shard messages, aggregate events per wall-clock second and the
// effective shard parallelism (busy time across shard workers over group
// wall time). Silent when no sharded simulation ran.
func reportShardTotals() {
	st := sim.ShardRunTotals()
	if st.Events == 0 || st.Wall <= 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "sharded kernel: %d events and %d cross-shard messages in %v (%.0f events/sec, %.2fx effective shard parallelism)\n",
		st.Events, st.Messages, st.Wall.Round(time.Millisecond),
		float64(st.Events)/st.Wall.Seconds(), st.Busy.Seconds()/st.Wall.Seconds())
}

// artifacts holds the per-run observability stems; an empty stem writes
// nothing.
type artifacts struct{ trace, metrics, latency string }

// write exports the recorders captured during run id to each stem's per-run
// file ("out/t.json" + "fig2b" → "out/t.fig2b.json"), then discards them so
// the next run starts clean.
func (a artifacts) write(id string) {
	for _, art := range []struct {
		stem  string
		write func(path string) error
	}{
		{a.trace, obs.WriteTraceFile},
		{a.metrics, obs.WriteMetricsFile},
		{a.latency, func(path string) error { return writeLatencySummary(path, id) }},
	} {
		if art.stem == "" {
			continue
		}
		ext := filepath.Ext(art.stem)
		if err := art.write(strings.TrimSuffix(art.stem, ext) + "." + id + ext); err != nil {
			fail(err)
		}
	}
	obs.Reset()
}

// writeLatencySummary reduces the run's captured recorders to an
// xdm-latency-summary/1 artifact: it round-trips the in-memory metrics and
// trace through their export forms so the summary matches exactly what an
// offline `xdmtrace summarize -trace ...` of the written artifacts produces.
func writeLatencySummary(path, label string) error {
	var mbuf, tbuf bytes.Buffer
	if err := obs.WriteMetricsCSV(&mbuf); err != nil {
		return err
	}
	if err := obs.WriteTrace(&tbuf); err != nil {
		return err
	}
	m, err := analyze.ParseMetrics(mbuf.Bytes())
	if err != nil {
		return err
	}
	tr, err := analyze.ParseTrace(tbuf.Bytes())
	if err != nil {
		return err
	}
	s := analyze.Summarize(m, label)
	s.AttachStages(analyze.Correlate(tr))
	data, err := s.Render()
	if err != nil {
		return err
	}
	return obs.WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}
