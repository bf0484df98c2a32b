package main

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/signature"
	"repro/internal/testbench"
)

// TestCheckCaptureBounds: -clock and -bits get the counter campaign's
// bounds. A clock that is not finite, or so fast that the capture would
// not fit in memory, is refused before any capture starts, and the
// fastest clock accepted captures the paper's period in at most
// core.MaxTicks ticks.
func TestCheckCaptureBounds(t *testing.T) {
	for _, c := range []struct {
		clock float64
		bits  int
		ok    bool
	}{
		{10e6, 16, true},
		{testbench.MaxClockHz, 16, true},
		{math.Nextafter(testbench.MaxClockHz, math.Inf(1)), 16, false},
		{math.NaN(), 16, false},
		{math.Inf(1), 16, false},
		{1e20, 16, false},
		{1e30, 16, false},
		{0, 16, false},
		{-1e6, 16, false},
		{10e6, 1, true},
		{10e6, 32, true},
		{10e6, 0, false},
		{10e6, 33, false},
	} {
		err := checkCapture(c.clock, c.bits)
		if (err == nil) != c.ok {
			t.Errorf("clock %g bits %d: error %v, want ok %v", c.clock, c.bits, err, c.ok)
		}
	}
	n, err := signature.CaptureConfig{ClockHz: testbench.MaxClockHz, CounterBits: 16}.Ticks(core.Default().Period())
	if err != nil {
		t.Fatal(err)
	}
	if n > core.MaxTicks {
		t.Fatalf("a capture at the %g Hz bound takes %d ticks, over the %d bound", testbench.MaxClockHz, n, core.MaxTicks)
	}
}

// TestRunRefusesUncapturableClock: a clock past the bound returns an
// error naming -clock instead of failing inside the capture (1e20 Hz
// used to panic allocating the tick grid).
func TestRunRefusesUncapturableClock(t *testing.T) {
	for _, clock := range []float64{math.NaN(), math.Inf(1), 1e20, 1e30} {
		err := run(0.10, 0, clock, 16, 1, "", "", "", "analytic")
		if err == nil || !strings.Contains(err.Error(), "-clock") {
			t.Errorf("clock %g: error %v, want one naming -clock", clock, err)
		}
	}
}
