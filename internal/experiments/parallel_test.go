package experiments

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

// runGrid must return results in cell-index order regardless of worker count,
// and must produce identical output for serial and parallel scheduling.
func TestRunGridOrdering(t *testing.T) {
	const n = 100
	fn := func(i int) int { return i * i }
	serial := runGrid(Options{Workers: 1}, n, fn)
	parallel := runGrid(Options{Workers: 8}, n, fn)
	for i := 0; i < n; i++ {
		if serial[i] != i*i {
			t.Fatalf("serial cell %d = %d, want %d", i, serial[i], i*i)
		}
		if parallel[i] != serial[i] {
			t.Fatalf("parallel cell %d = %d diverges from serial %d", i, parallel[i], serial[i])
		}
	}
}

// More workers than cells must not deadlock or skip cells.
func TestRunGridWorkerClamp(t *testing.T) {
	out := runGrid(Options{Workers: 16}, 3, func(i int) int { return i + 1 })
	for i, v := range out {
		if v != i+1 {
			t.Fatalf("cell %d = %d, want %d", i, v, i+1)
		}
	}
}

// A panic inside a parallel cell is re-raised on the caller with the cell
// index attached; the pool drains instead of hanging.
func TestRunGridPanicPropagation(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("cell panic was swallowed")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "grid cell 7 panicked") || !strings.Contains(msg, "boom") {
			t.Fatalf("panic %v does not identify the failing cell", r)
		}
	}()
	runGrid(Options{Workers: 4}, 16, func(i int) int {
		if i == 7 {
			panic("boom")
		}
		return i
	})
}

// In the serial path the original panic value propagates unwrapped.
func TestRunGridSerialPanicUnwrapped(t *testing.T) {
	defer func() {
		if r := recover(); r != "raw" {
			t.Fatalf("serial panic = %v, want raw value", r)
		}
	}()
	runGrid(Options{Workers: 1}, 2, func(i int) int {
		if i == 1 {
			panic("raw")
		}
		return 0
	})
}

// runGrid2 returns a rows×cols matrix with row-major cell identity.
func TestRunGrid2Shape(t *testing.T) {
	out := runGrid2(Options{Workers: 3}, 4, 5, func(i, j int) [2]int { return [2]int{i, j} })
	if len(out) != 4 {
		t.Fatalf("got %d rows, want 4", len(out))
	}
	for i, row := range out {
		if len(row) != 5 {
			t.Fatalf("row %d has %d cols, want 5", i, len(row))
		}
		for j, v := range row {
			if v != [2]int{i, j} {
				t.Fatalf("cell (%d,%d) = %v", i, j, v)
			}
		}
	}
}

// GridCellTime accumulates the serial-equivalent cost of every cell and
// resets to zero on ResetGridCellTime.
func TestGridCellTimeAccumulates(t *testing.T) {
	ResetGridCellTime()
	const n, sleep = 4, 2 * time.Millisecond
	runGrid(Options{Workers: 2}, n, func(i int) int {
		time.Sleep(sleep)
		return i
	})
	if got := GridCellTime(); got < n*sleep {
		t.Fatalf("GridCellTime %v, want at least %v", got, n*sleep)
	}
	ResetGridCellTime()
	if got := GridCellTime(); got != 0 {
		t.Fatalf("GridCellTime %v after reset, want 0", got)
	}
}

// TestCapacityWorkerCountInvariant pins the determinism contract of the
// capacity path: the same sweeps give deeply equal results at any worker
// count.
func TestCapacityWorkerCountInvariant(t *testing.T) {
	o := TestOptions()
	mk := func() []serve.NamedSweep {
		// One rung per sweep keeps the check cheap.
		sweeps := ServingSweeps(o)
		for i := range sweeps {
			sweeps[i].Cap.MaxRPS = sweeps[i].Cap.StartRPS
		}
		return sweeps
	}
	one := Capacity(o, mk())
	o.Workers = 4
	many := Capacity(o, mk())
	if !reflect.DeepEqual(one, many) {
		t.Fatalf("worker count changed sweep results:\n%+v\n%+v", one, many)
	}
	if len(one) != 2 || len(one[0].Points) == 0 {
		t.Fatalf("degenerate sweep results: %+v", one)
	}
}
