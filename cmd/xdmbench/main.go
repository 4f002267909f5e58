// Command xdmbench regenerates the paper's entire evaluation — every table
// and figure plus the ablation study — and writes the results to a file
// (default results.txt) as well as stdout. This is the one-shot
// reproduction entry point behind EXPERIMENTS.md.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
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
)

// perExpFile derives the per-experiment output file from a stem path:
// "out/trace.json" + "fig2b" → "out/trace.fig2b.json".
func perExpFile(stem, id string) string {
	ext := filepath.Ext(stem)
	return strings.TrimSuffix(stem, ext) + "." + id + ext
}

// writeLatencySummary reduces the experiment's captured recorders to an
// xdm-latency-summary/1 artifact: it round-trips the in-memory metrics and
// trace through their export forms so the summary matches exactly what an
// offline `xdmtrace summarize -trace ...` of the written artifacts produces.
func writeLatencySummary(path, label string) error {
	var mbuf, tbuf bytes.Buffer
	if err := obs.WriteMetricsJSON(&mbuf); err != nil {
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
	return s.WriteFile(path)
}

func main() {
	var (
		out     = flag.String("o", "results.txt", "output file ('-' for stdout only)")
		scale   = flag.Int("scale", 1, "fidelity divisor: 1 = full workload sizes")
		seed    = flag.Int64("seed", 1, "simulation seed")
		format  = flag.String("format", "text", "output format: text | md | csv")
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
		traceOut = flag.String("trace", "",
			"per-experiment Chrome trace-event JSON stem: t.json writes t.fig2b.json, t.tab6.json, ...")
		metricsOut = flag.String("metrics", "",
			"per-experiment metrics stem (CSV, or JSON when the path ends in .json)")
		latencyOut = flag.String("latency", "",
			"per-experiment latency-summary JSON stem (xdm-latency-summary/1, diffable with xdmtrace)")
		only = flag.String("only", "",
			"comma-separated experiment ids to run (default: all)")
		capacity = flag.Bool("capacity", false,
			"run the open-loop capacity sweep (static vs xdm) instead of the evaluation grid")
	)
	flag.Parse()

	if *invariants {
		invariant.SetHandler(invariant.PrintingHandler(os.Stderr, 20))
		invariant.Enable()
		defer func() {
			invariant.WriteReport(os.Stderr)
			if invariant.Violations() > 0 {
				fmt.Fprintln(os.Stderr, "xdmbench: simulation violated invariants")
				os.Exit(1)
			}
		}()
	}

	if *workers <= 0 {
		fmt.Fprintf(os.Stderr, "xdmbench: -workers must be a positive integer (got %d)\n", *workers)
		os.Exit(2)
	}
	if *scale <= 0 {
		fmt.Fprintf(os.Stderr, "xdmbench: -scale must be a positive integer (got %d)\n", *scale)
		os.Exit(2)
	}
	if *shards <= 0 {
		fmt.Fprintf(os.Stderr, "xdmbench: -shards must be a positive integer (got %d)\n", *shards)
		os.Exit(2)
	}
	if *seed < 0 {
		fmt.Fprintf(os.Stderr, "xdmbench: -seed must be non-negative (got %d)\n", *seed)
		os.Exit(2)
	}
	if *policy != "" {
		if _, err := place.ParsePolicy(*policy); err != nil {
			fmt.Fprintln(os.Stderr, "xdmbench:", err)
			fmt.Fprintln(os.Stderr, "usage: xdmbench -policy <spec> with spec = alg1|best-fit|worst-fit|one-shot|oversub[:F]|mix:name=w,... (+one-shot/+warm-pool)")
			os.Exit(2)
		}
	}
	if *fabricFlag != "" {
		if _, err := fabric.ParseSpec(*fabricFlag); err != nil {
			fmt.Fprintln(os.Stderr, "xdmbench:", err)
			fmt.Fprintln(os.Stderr, "usage: xdmbench -fabric <spec> with spec = "+fabric.Usage())
			os.Exit(2)
		}
	}
	if *capacity && (*only != "" || *traceOut != "" || *metricsOut != "" || *latencyOut != "") {
		fmt.Fprintln(os.Stderr, "xdmbench: -capacity cannot be combined with -only/-trace/-metrics/-latency")
		fmt.Fprintln(os.Stderr, "usage: xdmbench -capacity [-o file] [-scale N] [-seed N] [-workers N]")
		os.Exit(2)
	}

	var w io.Writer = os.Stdout
	var f *os.File
	if *out != "-" {
		var err error
		f, err = os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xdmbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	if *capacity {
		opts := experiments.Options{Scale: *scale, Seed: *seed, Workers: *workers, ShardWorkers: *shards, Policy: *policy, Fabric: *fabricFlag}
		start := time.Now()
		fmt.Fprintf(w, "xDM open-loop capacity sweep (scale=%d seed=%d)\n\n", *scale, *seed)
		sweeps := append(experiments.ServingSweeps(opts), experiments.ArenaSweeps(opts)...)
		sweeps = append(sweeps, experiments.PolicyArenaSweeps(opts)...)
		sim.ResetShardRunTotals()
		fmt.Fprint(w, serve.RenderCapacity(experiments.Capacity(opts, sweeps)))
		fmt.Fprintf(os.Stderr, "[capacity sweep done in %v with %d workers]\n",
			time.Since(start).Round(time.Millisecond), *workers)
		reportShardTotals()
		if f != nil {
			fmt.Fprintf(os.Stderr, "results written to %s\n", *out)
		}
		return
	}

	ids := experiments.IDs()
	if *only != "" {
		known := map[string]bool{}
		for _, id := range ids {
			known[id] = true
		}
		ids = nil
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(id)
			if id == "" {
				continue
			}
			if !known[id] {
				fmt.Fprintf(os.Stderr, "xdmbench: unknown experiment %q in -only\n", id)
				os.Exit(2)
			}
			ids = append(ids, id)
		}
		if len(ids) == 0 {
			fmt.Fprintln(os.Stderr, "xdmbench: -only selected no experiments")
			os.Exit(2)
		}
	}

	observing := *traceOut != "" || *metricsOut != "" || *latencyOut != ""
	if observing {
		obs.Capture()
	}

	opts := experiments.Options{Scale: *scale, Seed: *seed, Workers: *workers, ShardWorkers: *shards, Policy: *policy, Fabric: *fabricFlag}
	fmt.Fprintf(w, "xDM reproduction — full evaluation (scale=%d seed=%d)\n\n", *scale, *seed)
	experiments.ResetGridCellTime()
	sim.ResetShardRunTotals()
	wallStart := time.Now()
	for _, id := range ids {
		start := time.Now()
		if observing {
			obs.Reset() // each experiment gets its own files
		}
		tables, _ := experiments.Run(id, opts)
		for _, tb := range tables {
			switch *format {
			case "md":
				tb.RenderMarkdown(w)
			case "csv":
				tb.RenderCSV(w)
			default:
				tb.Render(w)
			}
		}
		if *traceOut != "" {
			if err := obs.WriteTraceFile(perExpFile(*traceOut, id)); err != nil {
				fmt.Fprintln(os.Stderr, "xdmbench:", err)
				os.Exit(1)
			}
		}
		if *metricsOut != "" {
			if err := obs.WriteMetricsFile(perExpFile(*metricsOut, id)); err != nil {
				fmt.Fprintln(os.Stderr, "xdmbench:", err)
				os.Exit(1)
			}
		}
		if *latencyOut != "" {
			if err := writeLatencySummary(perExpFile(*latencyOut, id), id); err != nil {
				fmt.Fprintln(os.Stderr, "xdmbench:", err)
				os.Exit(1)
			}
		}
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", id, time.Since(start).Round(time.Millisecond))
	}
	wall := time.Since(wallStart)
	// Aggregate time spent inside grid cells: what a fully serial run would
	// cost. cell/wall is the average number of cells in flight.
	cell := experiments.GridCellTime()
	fmt.Fprintf(os.Stderr, "total wall-clock %v with %d workers (aggregate cell time %v",
		wall.Round(time.Millisecond), *workers, cell.Round(time.Millisecond))
	if wall > 0 && cell > 0 {
		fmt.Fprintf(os.Stderr, ", %.2fx effective parallelism", cell.Seconds()/wall.Seconds())
	}
	fmt.Fprintln(os.Stderr, ")")
	reportShardTotals()
	if f != nil {
		fmt.Fprintf(os.Stderr, "results written to %s\n", *out)
	}
}

// reportShardTotals summarizes sharded-kernel execution on stderr: aggregate
// events per wall-clock second and the effective shard parallelism (busy
// time across shard workers over group wall time). Silent when no sharded
// simulation ran.
func reportShardTotals() {
	st := sim.ShardRunTotals()
	if st.Events == 0 || st.Wall <= 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "sharded kernel: %d events in %v (%.0f events/sec, %.2fx effective shard parallelism)\n",
		st.Events, st.Wall.Round(time.Millisecond),
		float64(st.Events)/st.Wall.Seconds(), st.Busy.Seconds()/st.Wall.Seconds())
}
