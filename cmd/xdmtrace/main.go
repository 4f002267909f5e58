// Command xdmtrace analyzes the observability artifacts xdmsim emits
// (-metrics / -trace / -latency) and gates latency regressions.
//
// Usage:
//
//	xdmtrace summarize <metrics.csv> [-trace t.json] [-label s] [-format text|json] [-o out]
//	xdmtrace diff <baseline> <candidate> [-rel 0.05] [-all]
//
// summarize reduces a CSV metrics artifact to a latency summary:
// per-histogram count/min/max/mean/p50/p95/p99, utilization timeline
// aggregates (mean, peak, idle fraction, integral), and — when -trace is
// given — the exact per-op stage attribution totals correlated from "op=N"
// spans. -format json emits the xdm-latency-summary/1 artifact that diff
// consumes and CI commits as a baseline. -o replaces its file atomically.
//
// diff compares two latency summaries. A statistic regresses when
// new > old*(1+rel). Exit status: 0 clean, 1 regression found, 2 usage or
// artifact error (missing file, unparseable input, schema mismatch).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/analyze"
	"repro/internal/obs"
)

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  xdmtrace summarize <metrics.csv> [-trace t.json] [-label s] [-format text|json] [-o out]
  xdmtrace diff <baseline> <candidate> [-rel 0.05] [-all]`)
	os.Exit(2)
}

// fail reports an artifact/usage error and exits 2 — distinct from exit 1,
// which diff reserves for a genuine latency regression.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "xdmtrace:", err)
	os.Exit(2)
}

// parseInterleaved parses fs while allowing positional arguments before,
// between, or after flags (package flag alone stops at the first positional,
// which would reject the documented `summarize <artifact> -trace t.json`).
func parseInterleaved(fs *flag.FlagSet, args []string) []string {
	var pos []string
	for {
		fs.Parse(args)
		args = fs.Args()
		if len(args) == 0 {
			return pos
		}
		pos = append(pos, args[0])
		args = args[1:]
	}
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "summarize":
		runSummarize(os.Args[2:])
	case "diff":
		runDiff(os.Args[2:])
	default:
		fmt.Fprintf(os.Stderr, "xdmtrace: unknown subcommand %q\n", os.Args[1])
		usage()
	}
}

func runSummarize(args []string) {
	fs := flag.NewFlagSet("summarize", flag.ExitOnError)
	traceIn := fs.String("trace", "", "correlate this trace's op=N spans into stage attribution")
	label := fs.String("label", "", "label recorded in the summary")
	format := fs.String("format", "text", "output format: text | json")
	out := fs.String("o", "", "output file (default stdout)")
	pos := parseInterleaved(fs, args)
	if len(pos) != 1 {
		usage()
	}
	if *format != "text" && *format != "json" {
		fail(fmt.Errorf("unknown -format %q (want text or json)", *format))
	}

	m, err := analyze.ParseMetricsFile(pos[0])
	if err != nil {
		fail(err)
	}
	s := analyze.Summarize(m, *label)
	if *traceIn != "" {
		tr, err := analyze.ParseTraceFile(*traceIn)
		if err != nil {
			fail(err)
		}
		s.AttachStages(analyze.Correlate(tr))
	}

	write := func(w io.Writer) error { renderText(w, s); return nil }
	if *format == "json" {
		data, err := s.Render()
		if err != nil {
			fail(err)
		}
		write = func(w io.Writer) error { _, err := w.Write(data); return err }
	}
	if *out == "" {
		write(os.Stdout)
	} else if err := obs.WriteFileAtomic(*out, write); err != nil {
		fail(err)
	}
}

func renderText(w io.Writer, s *analyze.Summary) {
	if s.Label != "" {
		fmt.Fprintf(w, "summary %s (source %s)\n\n", s.Label, s.Source)
	}
	fmt.Fprintf(w, "%-36s %8s %12s %12s %12s %12s %12s\n",
		"histogram", "count", "min", "p50", "p95", "p99", "max")
	for _, h := range s.Hists {
		fmt.Fprintf(w, "%-36s %8d %12.0f %12.0f %12.0f %12.0f %12.0f\n",
			h.Name, h.Count, h.Min, h.P50, h.P95, h.P99, h.Max)
	}
	if len(s.Utils) > 0 {
		fmt.Fprintf(w, "\n%-36s %10s %10s %8s %14s\n", "timeline", "mean", "peak", "idle", "integral")
		for _, u := range s.Utils {
			fmt.Fprintf(w, "%-36s %10.4f %10.4f %7.1f%% %14.4f\n",
				u.Name, u.Mean, u.Peak, u.Idle*100, u.Integral)
		}
	}
	if t := s.Stages; t != nil && t.Ops > 0 {
		fmt.Fprintf(w, "\nstage attribution over %d ops (%% of e2e)\n", t.Ops)
		total := float64(t.E2ENs)
		row := func(name string, ns int64) {
			pct := 0.0
			if total > 0 {
				pct = float64(ns) / total * 100
			}
			fmt.Fprintf(w, "  %-14s %14d ns %6.1f%%\n", name, ns, pct)
		}
		row("queue", t.QueueNs)
		row("arbitrate", t.ArbitrateNs)
		row("transfer", t.TransferNs)
		row("host-copy", t.HostCopyNs)
		row("unattributed", t.UnattributedNs)
		fmt.Fprintf(w, "  %-14s %14d ns\n", "e2e", t.E2ENs)
	}
}

// loadSummary reads the latency summary at path; ParseSummary refuses any
// other schema.
func loadSummary(path string) *analyze.Summary {
	data, err := os.ReadFile(path)
	if err != nil {
		fail(err)
	}
	s, err := analyze.ParseSummary(data)
	if err != nil {
		fail(fmt.Errorf("%s: %w", path, err))
	}
	return s
}

func runDiff(args []string) {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	rel := fs.Float64("rel", 0.05, "relative degradation tolerated before flagging")
	all := fs.Bool("all", false, "print unchanged metrics too")
	pos := parseInterleaved(fs, args)
	if len(pos) != 2 {
		usage()
	}
	old := loadSummary(pos[0])
	new_ := loadSummary(pos[1])
	res, err := analyze.Diff(old, new_, analyze.DiffOptions{Rel: *rel})
	if err != nil {
		fail(err)
	}
	fmt.Print(res.Render(!*all))
	if regs := res.Regressions(); len(regs) > 0 {
		fmt.Fprintf(os.Stderr, "xdmtrace: %d metric(s) regressed beyond %.0f%%\n", len(regs), *rel*100)
		os.Exit(1)
	}
	fmt.Printf("no regressions (%d metrics compared, rel %.0f%%)\n", len(res.Deltas), *rel*100)
}
