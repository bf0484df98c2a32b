package repro

import (
	"runtime"
	"sort"
	"testing"
	"time"
)

// pinPairs is the number of interleaved pairs a speed pin decides on
// unless its sides are so cheap that it takes more (see pairedRatio).
const pinPairs = 12

// pairedRatio is the measurement behind the in-test speed pins: it
// times num and den for iters calls each, back to back, pairs times,
// alternating which side goes first, and returns the median of the
// per-pair ratios time(num)/time(den). Load that arrives while a pin
// runs then lands on both sides of most pairs, instead of on one side
// of a whole second-long comparison, and a few disturbed pairs cannot
// move the median. A pin whose true ratio sits near its bound takes
// many short pairs over few long ones: a side's window is then short
// next to a host's mode switches, which move whole windows, and the
// median has more pairs to outvote them. Errors fail the test; call it
// from the test's own goroutine.
func pairedRatio(t *testing.T, pairs, iters int, num, den func() error) float64 {
	t.Helper()
	call := func(op func() error) {
		if err := op(); err != nil {
			t.Fatal(err)
		}
	}
	// run times n calls of op, after a fresh GC and one untimed call:
	// the other side's garbage and cold caches are not op's to pay for.
	run := func(op func() error, n int) time.Duration {
		runtime.GC()
		call(op)
		start := time.Now()
		for i := 0; i < n; i++ {
			call(op)
		}
		return time.Since(start)
	}
	ratios := make([]float64, pairs)
	var total time.Duration
	for p := range ratios {
		var tn, td time.Duration
		if p%2 == 0 {
			tn = run(num, iters)
			td = run(den, iters)
		} else {
			td = run(den, iters)
			tn = run(num, iters)
		}
		ratios[p] = float64(tn) / float64(td)
		total += tn + td
	}
	sort.Float64s(ratios)
	mid := (ratios[(pairs-1)/2] + ratios[pairs/2]) / 2
	t.Logf("%d pairs of %d calls each side (%v in all): ratio median %.3f, range [%.3f, %.3f]",
		pairs, iters, total.Round(time.Millisecond), mid, ratios[0], ratios[pairs-1])
	return mid
}
