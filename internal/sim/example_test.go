package sim_test

import (
	"fmt"

	"repro/internal/sim"
)

// A minimal simulation: two events and a resource hand-off.
func Example() {
	eng := sim.NewEngine()

	eng.After(10*sim.Microsecond, func() {
		fmt.Println("first event at", eng.Now())
	})

	workers := sim.NewResource(eng, 1)
	workers.Acquire(func() {
		eng.After(5*sim.Microsecond, func() {
			workers.Release()
		})
	})
	workers.Acquire(func() {
		fmt.Println("second holder admitted at", eng.Now())
	})

	eng.Run()
	// Output:
	// second holder admitted at 5.00µs
	// first event at 10.00µs
}

// Stations model device channels: two servers, four jobs.
func ExampleStation() {
	eng := sim.NewEngine()
	st := sim.NewStation(eng, 2)
	for i := 0; i < 4; i++ {
		i := i
		st.Submit(10*sim.Microsecond, func(sojourn sim.Duration) {
			fmt.Printf("job %d done after %v\n", i, sojourn)
		})
	}
	eng.Run()
	// Output:
	// job 0 done after 10.00µs
	// job 1 done after 10.00µs
	// job 2 done after 20.00µs
	// job 3 done after 20.00µs
}
