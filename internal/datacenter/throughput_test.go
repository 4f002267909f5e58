package datacenter

import (
	"os"
	"strconv"
	"testing"

	"repro/internal/sim"
)

// TestArenaThroughputFloor is the CI throughput gate for the sharded kernel:
// a pinned 5000-node single-cell run must sustain at least the events/sec
// floor given by XDM_ARENA_EPS_FLOOR. Wall-clock gates are hostile to laptops
// and loaded machines, so the test is opt-in via the environment variable
// (CI sets a floor far under healthy hardware's rate; see .github/workflows).
func TestArenaThroughputFloor(t *testing.T) {
	floorStr := os.Getenv("XDM_ARENA_EPS_FLOOR")
	if floorStr == "" {
		t.Skip("set XDM_ARENA_EPS_FLOOR (events/sec) to enable the throughput gate")
	}
	floor, err := strconv.ParseFloat(floorStr, 64)
	if err != nil || floor <= 0 {
		t.Fatalf("XDM_ARENA_EPS_FLOOR=%q is not a positive number", floorStr)
	}

	cfg := ArenaConfig{
		Nodes:        5000,
		Shards:       8,
		ShardWorkers: 8,
		CoresPerNode: 4,
		PagesPerNode: 1024,
		XDM:          true,
		Templates:    arenaTestTemplates(),
		Tasks:        5000,
		SLO:          50 * sim.Millisecond,
		Seed:         1,
	}
	sim.ResetShardRunTotals()
	res := NewArena(cfg).Run()
	if res.Completed != cfg.Tasks {
		t.Fatalf("cell incomplete: %d of %d tasks", res.Completed, cfg.Tasks)
	}
	st := sim.ShardRunTotals()
	if st.Wall <= 0 {
		t.Fatalf("no wall time recorded: %+v", st)
	}
	eps := float64(st.Events) / st.Wall.Seconds()
	t.Logf("5000-node cell: %d events in %v = %.0f events/sec (%.2fx effective shard parallelism)",
		st.Events, st.Wall, eps, st.Busy.Seconds()/st.Wall.Seconds())
	if eps < floor {
		t.Fatalf("throughput %.0f events/sec under the %.0f floor", eps, floor)
	}
}
