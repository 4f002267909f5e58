package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"repro/internal/sim"
)

// allocSampleRate is runtime.MemProfileRate in traced runs: one sample per
// 64 KiB allocated instead of the default 512 KiB, so that layers with few
// allocations still get samples.
const allocSampleRate = 64 << 10

// layers are the packages host cost is charged to, by module name.
var layers = []string{
	"sim", "pcie", "device", "swap", "mem", "task", "workload", "trace", "vm", "core",
	"baseline", "cluster", "place", "datacenter", "serve", "fabric", "faults", "metrics", "experiments",
}

// Buckets besides the layers: otherBucket takes samples whose innermost
// repository frame is in any other package (obs, invariant, this harness);
// bgBucket takes samples with no repository frame at all (GC workers, the
// scheduler).
const (
	otherBucket = "other"
	bgBucket    = "runtime_bg"
)

// layerOf charges a function to the layer of its package. The function name
// is the one pprof records, such as "repro/internal/sim.(*Engine).Step".
func layerOf(fn string) (string, bool) {
	if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		for _, l := range layers {
			if pkg == l {
				return l, true
			}
		}
		return otherBucket, true
	}
	if strings.HasPrefix(fn, "repro/") || strings.HasPrefix(fn, "main.") {
		return otherBucket, true
	}
	return "", false
}

// span is one timed interval of the harness, relative to the log's start:
// a rep (kind "rep", id its number) or one step of an operation (kind
// "experiments.Run", "Table.Render" or "verify", id the experiment).
type span struct {
	kind, id   string
	start, dur time.Duration
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog records
// nothing, which is how untraced reps run.
type spanLog struct {
	t0    time.Time
	spans []span
}

// begin opens a span and returns the func that closes it.
func (l *spanLog) begin(kind, id string) (end func()) {
	if l == nil {
		return func() {}
	}
	i := len(l.spans)
	l.spans = append(l.spans, span{kind: kind, id: id, start: time.Since(l.t0)})
	return func() { l.spans[i].dur = time.Since(l.t0) - l.spans[i].start }
}

// total sums the durations of the spans of a kind, and of one experiment
// unless id is "".
func (l *spanLog) total(kind, id string) time.Duration {
	var d time.Duration
	for _, s := range l.spans {
		if s.kind == kind && (id == "" || s.id == id) {
			d += s.dur
		}
	}
	return d
}

// writeChrome writes the spans as Chrome trace-event JSON (Perfetto,
// chrome://tracing). Spans nest by time on one track.
func (l *spanLog) writeChrome(path string, meta any) error {
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
	}
	doc := struct {
		TraceEvents []event `json:"traceEvents"`
		OtherData   any     `json:"otherData"`
	}{OtherData: meta}
	for _, s := range l.spans {
		doc.TraceEvents = append(doc.TraceEvents, event{s.kind + "/" + s.id, "X",
			float64(s.start) / 1e3, float64(s.dur) / 1e3, 1, 1})
	}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// engineLog counts the engines the program creates and, once their rep is
// over, the events they fired. It holds the engines of one rep at a time.
type engineLog struct {
	mu      sync.Mutex
	live    []*sim.Engine
	engines int
	events  uint64
}

func (e *engineLog) add(eng *sim.Engine) {
	e.mu.Lock()
	e.live = append(e.live, eng)
	e.mu.Unlock()
}

// settle folds the finished rep's engines into the totals and drops them.
func (e *engineLog) settle() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, eng := range e.live {
		e.events += eng.Processed()
	}
	e.engines += len(e.live)
	e.live = nil
}

// tracer records what a traced phase needs: spans from this harness, the
// kernel's engines through sim.SetNewEngineHook, a CPU profile and two
// allocation-profile snapshots around the phase.
type tracer struct {
	spans   *spanLog
	engines *engineLog
	unhook  func()
	cpu     bytes.Buffer
	alloc0  bytes.Buffer
	alloc1  bytes.Buffer
}

func startTracer() (*tracer, error) {
	t := &tracer{spans: &spanLog{t0: time.Now()}, engines: &engineLog{}}
	runtime.GC() // publishes every allocation so far to the profile
	if err := pprof.Lookup("allocs").WriteTo(&t.alloc0, 0); err != nil {
		return nil, fmt.Errorf("alloc profile: %w", err)
	}
	if err := pprof.StartCPUProfile(&t.cpu); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	t.unhook = sim.SetNewEngineHook(t.engines.add)
	return t, nil
}

func (t *tracer) stop() error {
	t.unhook()
	pprof.StopCPUProfile()
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(&t.alloc1, 0); err != nil {
		return fmt.Errorf("alloc profile: %w", err)
	}
	return nil
}

// layerCosts charges the traced phase's CPU time and allocated bytes to
// layers, by the innermost repository frame of each profile sample.
func (t *tracer) layerCosts() (cpuNanos, allocBytes map[string]int64, err error) {
	if cpuNanos, err = attributeProfile(t.cpu.Bytes(), "cpu"); err != nil {
		return nil, nil, fmt.Errorf("cpu profile: %w", err)
	}
	before, err := attributeProfile(t.alloc0.Bytes(), "alloc_space")
	if err != nil {
		return nil, nil, fmt.Errorf("alloc profile: %w", err)
	}
	if allocBytes, err = attributeProfile(t.alloc1.Bytes(), "alloc_space"); err != nil {
		return nil, nil, fmt.Errorf("alloc profile: %w", err)
	}
	for k := range allocBytes {
		allocBytes[k] -= before[k]
	}
	return cpuNanos, allocBytes, nil
}

func attributeProfile(raw []byte, sampleType string) (map[string]int64, error) {
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	return p.attribute(sampleType, layerOf)
}

// writeArtifacts stores the spans and both profiles under dir.
func (t *tracer) writeArtifacts(dir, stem string, meta any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := t.spans.writeChrome(filepath.Join(dir, stem+".trace.json"), meta); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, stem+".cpu.pb.gz"), t.cpu.Bytes(), 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, stem+".alloc.pb.gz"), t.alloc1.Bytes(), 0o644)
}
