package obs

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Chrome trace-event JSON export. The format is the one chrome://tracing and
// Perfetto load directly: a {"traceEvents":[...]} object whose events carry
// a phase letter ("X" complete span, "i" instant, "C" counter, "M"
// metadata), microsecond timestamps, and pid/tid coordinates. We map one
// simulation run (engine/recorder) to a pid and one track to a tid, name
// both with "M" metadata events, and export timelines as "C" counter series.

// WriteTrace writes every captured recorder as one Chrome trace-event JSON
// document. Output is deterministic: recorders are ordered canonically (see
// orderedRecorders), tracks lexicographically, and events by timestamp.
func WriteTrace(w io.Writer) error {
	recs := orderedRecorders()
	var buf bytes.Buffer
	buf.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	for pid, r := range recs {
		if pid > 0 {
			buf.WriteByte(',')
		}
		r.writeTraceChunk(&buf, pid)
	}
	buf.WriteString("]}\n")
	_, err := w.Write(buf.Bytes())
	return err
}

// WriteTraceFile writes the trace to path, replacing it atomically
// (WriteFileAtomic).
func WriteTraceFile(path string) error { return WriteFileAtomic(path, WriteTrace) }

// tracks returns the union of event tracks and timeline names, sorted, so
// tid assignment is deterministic.
func (r *Recorder) tracks() []string {
	set := map[string]bool{}
	for i := range r.events {
		set[r.events[i].Track] = true
	}
	for name := range r.timelines {
		set[name] = true
	}
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// writeTraceChunk renders one recorder's events as a comma-separated run of
// JSON objects (no surrounding brackets). Rendering is a pure function of
// the recorder's content and pid, which is what makes chunk bytes usable as
// a canonical ordering signature (rendered at pid 0).
func (r *Recorder) writeTraceChunk(buf *bytes.Buffer, pid int) {
	name := r.label
	if name == "" {
		name = fmt.Sprintf("run%d", pid)
	}
	fmt.Fprintf(buf, `{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":%s}}`,
		pid, jsonString(name))

	tracks := r.tracks()
	tid := map[string]int{}
	for i, t := range tracks {
		tid[t] = i + 1
		fmt.Fprintf(buf, `,{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":%s}}`,
			pid, i+1, jsonString(t))
	}

	// Spans and instants, grouped per track in tid order, timestamp-sorted
	// within the track (stable, so simultaneous events keep recording order).
	byTrack := map[string][]int{}
	for i := range r.events {
		byTrack[r.events[i].Track] = append(byTrack[r.events[i].Track], i)
	}
	for _, t := range tracks {
		idx := byTrack[t]
		sort.SliceStable(idx, func(a, b int) bool {
			return r.events[idx[a]].Ts < r.events[idx[b]].Ts
		})
		for _, i := range idx {
			ev := &r.events[i]
			switch ev.Kind {
			case KindSpan:
				fmt.Fprintf(buf, `,{"name":%s,"ph":"X","pid":%d,"tid":%d,"ts":%s,"dur":%s`,
					jsonString(ev.Name), pid, tid[t], usec(sim.Duration(ev.Ts)), usec(ev.Dur))
			default:
				fmt.Fprintf(buf, `,{"name":%s,"ph":"i","pid":%d,"tid":%d,"ts":%s,"s":"t"`,
					jsonString(ev.Name), pid, tid[t], usec(sim.Duration(ev.Ts)))
			}
			if ev.Detail != "" {
				fmt.Fprintf(buf, `,"args":{"detail":%s}`, jsonString(ev.Detail))
			}
			buf.WriteByte('}')
		}
	}

	// Timelines as counter series: one "C" event per populated bucket,
	// stamped at the bucket's start time, ascending.
	for _, name := range sortedTimelineNames(r) {
		e := r.timelines[name]
		for i := 0; i < e.tl.Len(); i++ {
			if e.tl.Count(i) == 0 {
				continue
			}
			v := e.tl.BucketMean(i)
			if e.mode == ModeSum {
				v = e.tl.Sum(i)
			}
			at := sim.Duration(i) * e.tl.Width()
			fmt.Fprintf(buf, `,{"name":%s,"ph":"C","pid":%d,"tid":%d,"ts":%s,"args":{"value":%s}}`,
				jsonString(name), pid, tid[name], usec(at), fmtFloat(v))
		}
	}
}

// usec renders a virtual duration as trace-event microseconds with
// nanosecond precision.
func usec(d sim.Duration) string {
	return fmt.Sprintf("%.3f", float64(d)/1e3)
}

// jsonString renders s as a quoted JSON string (ASCII-safe escaping).
func jsonString(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		case '\r':
			b.WriteString(`\r`)
		default:
			if r < 0x20 {
				fmt.Fprintf(&b, `\u%04x`, r)
			} else {
				b.WriteRune(r)
			}
		}
	}
	b.WriteByte('"')
	return b.String()
}
