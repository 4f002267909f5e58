package obs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/metrics"
)

// Deterministic export ordering. Recorders register from experiment worker
// goroutines, so insertion order varies run to run and with -workers. Each
// recorder's own content, however, is fully deterministic: its engine runs
// single-threaded and the grid always executes the same cells. So we order
// runs by a canonical signature — the recorder's own serialized bytes,
// rendered with a placeholder run id of 0 — and then assign final run ids
// (trace pids) by sorted position. Two recorders can only tie if their
// contents are byte-identical, in which case either order yields the same
// file. The result: exports are byte-identical across reruns at any worker
// count.

// orderedRecorders seals every recorder and returns them in canonical order.
func orderedRecorders() []*Recorder {
	recs := snapshot()
	type keyed struct {
		r   *Recorder
		sig string
	}
	ks := make([]keyed, len(recs))
	for i, r := range recs {
		r.Seal()
		var tb, mb bytes.Buffer
		r.writeTraceChunk(&tb, 0)
		r.writeMetricsCSVChunk(&mb, 0)
		ks[i] = keyed{r: r, sig: tb.String() + "\x00" + mb.String()}
	}
	sort.SliceStable(ks, func(a, b int) bool { return ks[a].sig < ks[b].sig })
	for i, k := range ks {
		recs[i] = k.r
	}
	return recs
}

func sortedCounterNames(r *Recorder) []string {
	out := make([]string, 0, len(r.counters))
	for name := range r.counters {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func sortedGaugeNames(r *Recorder) []string {
	out := make([]string, 0, len(r.gauges))
	for name := range r.gauges {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// MetricsSchema versions the metrics artifact layout. The CSV export carries
// it as a leading "# schema:" comment line; internal/analyze refuses a file
// without it, and diff refuses summaries reduced from different schemas.
// Bump it when rows/keys change shape.
const MetricsSchema = "xdm-metrics/2"

func sortedHistNames(hists map[string]*metrics.Histogram) []string {
	out := make([]string, 0, len(hists))
	for name := range hists {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func sortedTimelineNames(r *Recorder) []string {
	out := make([]string, 0, len(r.timelines))
	for name := range r.timelines {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// fmtFloat renders v in the shortest round-trip form ('g', like %v).
// Non-finite values render as 0: NaN/±Inf are not valid JSON tokens in the
// trace's counter events, and a clamped sample beats an artifact no parser
// will load.
func fmtFloat(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "0"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// csvField strips CSV/record structure characters from free-form text
// (labels); registered metric names are expected to avoid them by
// construction.
func csvField(s string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case ',', '\n', '\r', '"':
			return ';'
		}
		return r
	}, s)
}

// WriteMetricsCSV writes every captured recorder's counters, gauges, and
// timelines as CSV with columns run,type,name,key,value. Timeline rows carry
// the bucket index in key (plus one width_ns row); scalar rows leave key
// empty. Ordering is canonical (see orderedRecorders).
func WriteMetricsCSV(w io.Writer) error {
	recs := orderedRecorders()
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "# schema: %s\n", MetricsSchema)
	buf.WriteString("run,type,name,key,value\n")
	for run, r := range recs {
		r.writeMetricsCSVChunk(&buf, run)
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// writeMetricsCSVChunk renders one recorder's rows. Like writeTraceChunk it
// is a pure function of content and run id, so it doubles as the metrics
// half of the canonical ordering signature.
func (r *Recorder) writeMetricsCSVChunk(buf *bytes.Buffer, run int) {
	if r.label != "" {
		fmt.Fprintf(buf, "%d,label,%s,,\n", run, csvField(r.label))
	}
	fmt.Fprintf(buf, "%d,recorder,events,,%d\n", run, len(r.events))
	fmt.Fprintf(buf, "%d,recorder,dropped,,%d\n", run, r.dropped)
	for _, name := range sortedCounterNames(r) {
		fmt.Fprintf(buf, "%d,counter,%s,,%s\n", run, name, fmtFloat(r.counters[name].Value))
	}
	for _, name := range sortedGaugeNames(r) {
		fmt.Fprintf(buf, "%d,gauge,%s,,%s\n", run, name, fmtFloat(r.gauges[name].Value))
	}
	hists := r.exportHists()
	for _, name := range sortedHistNames(hists) {
		h := hists[name]
		fmt.Fprintf(buf, "%d,hist,%s,count,%d\n", run, name, h.Count())
		fmt.Fprintf(buf, "%d,hist,%s,sum,%s\n", run, name, fmtFloat(h.Sum()))
		fmt.Fprintf(buf, "%d,hist,%s,min,%s\n", run, name, fmtFloat(h.Min()))
		fmt.Fprintf(buf, "%d,hist,%s,max,%s\n", run, name, fmtFloat(h.Max()))
		fmt.Fprintf(buf, "%d,hist,%s,p50,%s\n", run, name, fmtFloat(h.Quantile(0.50)))
		fmt.Fprintf(buf, "%d,hist,%s,p95,%s\n", run, name, fmtFloat(h.Quantile(0.95)))
		fmt.Fprintf(buf, "%d,hist,%s,p99,%s\n", run, name, fmtFloat(h.Quantile(0.99)))
		idx, counts := h.Buckets()
		for i, bi := range idx {
			fmt.Fprintf(buf, "%d,hist,%s,b%d,%d\n", run, name, bi, counts[i])
		}
	}
	for _, name := range sortedTimelineNames(r) {
		e := r.timelines[name]
		fmt.Fprintf(buf, "%d,timeline,%s,width_ns,%d\n", run, name, int64(e.tl.Width()))
		for i := 0; i < e.tl.Len(); i++ {
			if e.tl.Count(i) == 0 {
				continue
			}
			v := e.tl.BucketMean(i)
			if e.mode == ModeSum {
				v = e.tl.Sum(i)
			}
			fmt.Fprintf(buf, "%d,timeline,%s,%d,%s\n", run, name, i, fmtFloat(v))
		}
	}
}

// WriteMetricsFile writes the CSV metrics artifact to path, replacing the
// file atomically (WriteFileAtomic).
func WriteMetricsFile(path string) error {
	return WriteFileAtomic(path, WriteMetricsCSV)
}

// WriteFileAtomic writes path through write without ever exposing a partial
// file: the bytes go to a temporary file in path's directory, which is
// synced and renamed over path only when write succeeds. On any error the
// temporary file is removed and an existing file at path is left untouched.
func WriteFileAtomic(path string, write func(io.Writer) error) (err error) {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	if err = write(f); err != nil {
		return err
	}
	if err = f.Chmod(0o644); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}
