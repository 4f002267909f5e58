package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
)

// goldenDir is the golden corpus, relative to the repository root.
const goldenDir = "internal/experiments/testdata/golden"

// runner executes a workload's reps and checks every operation. One
// operation is one experiments.Run call plus the render and check of its
// tables; it fails if it panics or its render is wrong.
type runner struct {
	w    workload
	opts experiments.Options
	// golden holds the expected render of each experiment, or is nil when
	// no golden exists for the options (any seed but 1).
	golden map[string][]byte
	// run is experiments.Run; tests substitute a corrupting wrapper.
	run func(id string, o experiments.Options) ([]experiments.Table, bool)

	ref    map[string][]byte   // first correct render of each experiment
	tables []experiments.Table // the tables behind ref, for the model metric

	attempted, failed int
	errs              []string

	spans *spanLog // nil unless traced
}

func newRunner(w workload, seed int64, root string) (*runner, error) {
	r := &runner{w: w, opts: w.options(seed), run: experiments.Run, ref: map[string][]byte{}}
	if seed != 1 {
		return r, nil
	}
	r.golden = map[string][]byte{}
	for _, id := range w.exps {
		b, err := os.ReadFile(filepath.Join(root, goldenDir, id+".golden"))
		if err != nil {
			return nil, fmt.Errorf("golden corpus: %w", err)
		}
		r.golden[id] = b
	}
	return r, nil
}

// sample is one rep's host cost.
type sample struct {
	wall, cpu time.Duration
	alloc     uint64 // bytes allocated (runtime TotalAlloc delta)
	cell      time.Duration
	shard     sim.ShardStats
}

// rep runs every experiment of the workload once and measures it. Every
// rep starts from a collected heap, so no rep pays for its predecessor's
// garbage.
func (r *runner) rep(k int) sample {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cell0, shard0, cpu0 := experiments.GridCellTime(), sim.ShardRunTotals(), cpuTime()
	start := time.Now()
	end := r.spans.begin("rep", strconv.Itoa(k))
	for _, id := range r.w.exps {
		r.op(id)
	}
	end()
	s := sample{wall: time.Since(start), cpu: cpuTime() - cpu0, cell: experiments.GridCellTime() - cell0}
	runtime.ReadMemStats(&m1)
	s.alloc = m1.TotalAlloc - m0.TotalAlloc
	sh := sim.ShardRunTotals()
	s.shard = sim.ShardStats{
		Events:  sh.Events - shard0.Events,
		Windows: sh.Windows - shard0.Windows,
		Busy:    sh.Busy - shard0.Busy,
		Wall:    sh.Wall - shard0.Wall,
	}
	return s
}

// op runs, renders and checks one experiment, counting it as failed on a
// panic or a wrong render.
func (r *runner) op(id string) {
	r.attempted++
	if err := r.tryOp(id); err != nil {
		r.failed++
		r.errs = append(r.errs, err.Error())
	}
}

func (r *runner) tryOp(id string) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%s: panic: %v", id, p)
		}
	}()
	end := r.spans.begin("experiments.Run", id)
	tables, ok := r.run(id, r.opts)
	end()
	if !ok {
		return fmt.Errorf("%s: unknown experiment", id)
	}
	end = r.spans.begin("Table.Render", id)
	var buf bytes.Buffer
	for i := range tables {
		tables[i].Render(&buf)
	}
	end()
	end = r.spans.begin("verify", id)
	defer end()
	return r.verify(id, buf.Bytes(), tables)
}

// verify checks a render against the golden corpus (seed 1) and against the
// first correct render of the same experiment in this process (any seed).
func (r *runner) verify(id string, got []byte, tables []experiments.Table) error {
	if want, ok := r.ref[id]; ok {
		if !bytes.Equal(want, got) {
			return fmt.Errorf("%s: render differs from rep 1 at line %d", id, firstDiffLine(want, got))
		}
		return nil
	}
	if want, ok := r.golden[id]; ok && !bytes.Equal(want, got) {
		return fmt.Errorf("%s: render differs from %s/%s.golden at line %d", id, goldenDir, id, firstDiffLine(want, got))
	}
	r.ref[id] = got
	r.tables = append(r.tables, tables...)
	return nil
}

func firstDiffLine(a, b []byte) int {
	line := 1
	for i := 0; i < len(a) && i < len(b) && a[i] == b[i]; i++ {
		if a[i] == '\n' {
			line++
		}
	}
	return line
}

// outputSHA256 digests the reference renders in experiment order, so two
// commits can be compared at seeds that have no golden.
func (r *runner) outputSHA256() string {
	h := sha256.New()
	for _, id := range r.w.exps {
		h.Write(r.ref[id])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage(RUSAGE_SELF): " + err.Error()) // fails only on a bad pointer
	}
	return ru
}

// cpuTime is the process's user+sys time so far.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS is the process's peak resident set size in bytes, the VmHWM that
// Linux reports in KiB as ru_maxrss.
func peakRSS() uint64 { return uint64(rusage().Maxrss) << 10 }
