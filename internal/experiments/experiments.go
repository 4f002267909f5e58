// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V) on the simulated substrate. Each experiment is a
// function returning rendered Tables; the registry maps the paper's artifact
// ids (fig2b, tab6, ...) to runners so cmd/xdmsim and the benchmark harness
// can invoke them uniformly.
//
// Absolute numbers differ from the paper's physical testbed by construction;
// the reproduction target is the result *shape*: orderings, approximate
// ratios, and crossover locations.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strings"
	"unicode/utf8"

	"repro/internal/device"
	"repro/internal/fabric"
	"repro/internal/pcie"
	"repro/internal/place"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/vm"
	"repro/internal/workload"

	"repro/internal/baseline"
)

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = utf8.RuneCountInString(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && utf8.RuneCountInString(cell) > widths[i] {
				widths[i] = utf8.RuneCountInString(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	n := utf8.RuneCountInString(s)
	if n >= w {
		return s
	}
	return s + strings.Repeat(" ", w-n)
}

// Options control experiment fidelity.
type Options struct {
	// Scale divides workload footprints and access counts: 1 is full
	// fidelity (benchmark harness), larger values run faster (tests).
	Scale int
	// Seed feeds every stochastic component.
	Seed int64
	// Workers bounds how many independent engine runs execute concurrently
	// (grid cells; see parallel.go). 0 or 1 is serial. Output is
	// byte-identical for any worker count: parallelism is across runs,
	// never inside one.
	Workers int
	// ShardWorkers shards the datacenter arena's event kernel by node
	// domain and runs that many shard workers *inside* one simulation
	// (see sim.Shards). 0 or 1 is a single serial shard. Output is
	// byte-identical for any value: cross-shard events merge at
	// deterministic lookahead barriers in canonical order.
	ShardWorkers int
	// Policy overrides the placement policy by spec (see place.ParsePolicy;
	// "" keeps each experiment's default: alg1 on the dispatcher, worst-fit
	// on the arena). CLIs validate the spec before it reaches here;
	// placementPolicy panics on a malformed spec.
	Policy string
	// Fabric overrides the CXL switch topology for the fabric experiments
	// (see fabric.ParseSpec; "" keeps fabric.DefaultSpec). CLIs validate the
	// spec before it reaches here; fabricSpec panics on a malformed spec.
	Fabric string
}

// fabricSpec parses Options.Fabric ("" = fabric.DefaultSpec).
func (o Options) fabricSpec() fabric.Spec {
	if o.Fabric == "" {
		return fabric.DefaultSpec()
	}
	s, err := fabric.ParseSpec(o.Fabric)
	if err != nil {
		panic("experiments: invalid fabric spec: " + err.Error())
	}
	return s
}

// placementPolicy parses Options.Policy ("" = nil, keep defaults).
func (o Options) placementPolicy() *place.Policy {
	if o.Policy == "" {
		return nil
	}
	p, err := place.ParsePolicy(o.Policy)
	if err != nil {
		panic("experiments: invalid placement policy: " + err.Error())
	}
	return p
}

// TestOptions is the fast configuration for unit tests.
func TestOptions() Options { return Options{Scale: 8, Seed: 1, Workers: 1} }

func (o Options) normalize() Options {
	if o.Scale < 1 {
		o.Scale = 1
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	if o.ShardWorkers < 1 {
		o.ShardWorkers = 1
	}
	return o
}

// scaled shrinks a workload spec by the scale factor, keeping every ratio
// intact.
func (o Options) scaled(s workload.Spec) workload.Spec {
	if o.Scale <= 1 {
		return s
	}
	s.FootprintPages /= o.Scale
	if s.FootprintPages < 64 {
		s.FootprintPages = 64
	}
	s.MainAccesses /= o.Scale
	if s.MainAccesses < 256 {
		s.MainAccesses = 256
	}
	if s.SegmentLen > s.FootprintPages {
		s.SegmentLen = s.FootprintPages
	}
	return s
}

// Runner produces one experiment's tables.
type Runner func(Options) []Table

// registry maps experiment ids to runners, filled by init functions in the
// per-experiment files.
var registry = map[string]Runner{}

func register(id string, r Runner) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = r
}

// IDs lists registered experiment ids in sorted order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes the experiment with the given id (ok=false if unknown).
func Run(id string, o Options) (tables []Table, ok bool) {
	r, ok := registry[id]
	if !ok {
		return nil, false
	}
	return r(o.normalize()), true
}

// --- shared run helpers ---

// testbed builds the paper's single-node testbed: two 10-core CPUs, SSD,
// RDMA, DRAM and disk backends on a PCIe 3.0 x16 host (Table IV era).
func testbed(eng *sim.Engine) baseline.Env {
	m := vm.NewMachine(eng, pcie.Gen3, 16, 20, 64*workload.PagesPerGiB)
	m.AttachDevice(device.SpecTestbedSSD("ssd"))
	m.AttachDevice(device.SpecConnectX5("rdma"))
	m.AttachDevice(device.SpecRemoteDRAM("dram"))
	m.AttachDevice(device.SpecDiskArray())
	return baseline.Env{Machine: m, FileBackend: "ssd"}
}

// runTask executes cfg to completion and returns its stats.
func runTask(eng *sim.Engine, cfg task.Config) task.Stats {
	var out task.Stats
	done := false
	task.New(cfg).Start(func(s task.Stats) { out = s; done = true })
	eng.Run()
	if !done {
		panic("experiments: task did not finish")
	}
	return out
}

// ratio formats a speedup/ratio cell.
func ratio(v float64) string { return fmt.Sprintf("%.2fx", v) }

// f2 formats a 2-decimal cell.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// pct formats a percentage cell.
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// us formats a duration cell in microseconds.
func us(d sim.Duration) string { return fmt.Sprintf("%.2fµs", d.Microseconds()) }

// ms formats a duration cell in milliseconds.
func ms(d sim.Duration) string { return fmt.Sprintf("%.2fms", d.Milliseconds()) }

// RenderMarkdown writes the table as GitHub-flavored markdown.
func (t *Table) RenderMarkdown(w io.Writer) {
	fmt.Fprintf(w, "### %s: %s\n\n", t.ID, t.Title)
	fmt.Fprintf(w, "| %s |\n", strings.Join(t.Columns, " | "))
	seps := make([]string, len(t.Columns))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(seps, " | "))
	for _, row := range t.Rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | "))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "\n_%s_\n", n)
	}
	fmt.Fprintln(w)
}

// RenderCSV writes the table as CSV (one file section per table when
// concatenated; the first cell of the header row carries the table id).
func (t *Table) RenderCSV(w io.Writer) {
	cw := csv.NewWriter(w)
	header := append([]string{"#" + t.ID}, t.Columns...)
	_ = cw.Write(header)
	for _, row := range t.Rows {
		_ = cw.Write(append([]string{""}, row...))
	}
	cw.Flush()
}
