package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

var burnSink uint64

// burnCPU spins for d of CPU time.
func burnCPU(d time.Duration) {
	end := cpuTime() + d
	x := uint64(1)
	for cpuTime() < end {
		for i := 0; i < 1<<16; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	burnSink = x
}

// TestDecoderOnKnownCPUBurner profiles a function that does nothing but burn
// CPU and checks that the decoder charges it most of the samples, and that
// the samples add up to about the CPU time burned.
func TestDecoderOnKnownCPUBurner(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler busy: %v", err)
	}
	cpu0 := cpuTime()
	burnCPU(500 * time.Millisecond)
	burned := cpuTime() - cpu0
	pprof.StopCPUProfile()

	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.attribute("cpu", func(fn string) (string, bool) {
		if strings.HasSuffix(fn, ".burnCPU") {
			return "burn", true
		}
		return "", false
	})
	if err != nil {
		t.Fatal(err)
	}
	total := got["burn"] + got[bgBucket]
	if got["burn"] < total*8/10 {
		t.Errorf("burnCPU got %v of %v sampled CPU, want >= 80%%", time.Duration(got["burn"]), time.Duration(total))
	}
	if d := time.Duration(total); d < burned/2 || d > burned*3/2 {
		t.Errorf("profile holds %v of CPU, %v was burned", d, burned)
	}
}

func TestDecoderRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Fatal("parseProfile accepted garbage")
	}
}

func TestLayerOf(t *testing.T) {
	cases := []struct {
		fn, layer string
		ok        bool
	}{
		{"repro/internal/sim.(*Engine).Step", "sim", true},
		{"repro/internal/experiments.runGrid[...].func1", "experiments", true},
		{"repro/internal/swap.(*Path).issue.func2", "swap", true},
		{"repro/internal/obs.Attach", otherBucket, true},
		{"main.(*runner).verify", otherBucket, true},
		{"runtime.mallocgc", "", false},
		{"bytes.Equal", "", false},
	}
	for _, c := range cases {
		layer, ok := layerOf(c.fn)
		if layer != c.layer || ok != c.ok {
			t.Errorf("layerOf(%q) = %q, %v; want %q, %v", c.fn, layer, ok, c.layer, c.ok)
		}
	}
}
