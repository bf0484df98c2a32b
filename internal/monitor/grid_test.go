package monitor_test

import (
	"testing"

	"repro/internal/biquad"
	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/rng"
	"repro/internal/wave"
)

// TestClassifyBatchMatchesScalarOnCampaignGrids runs the ClassifyBatch ≡
// Classify property on the points campaigns classify: the exact
// extraction's scan grids of 20 deviated CUTs and the tick grids of
// noisy captures. Their traces cross zone boundaries, so many points
// fall in partly proven coarse LUT cells, where ClassifyBatch reads the
// monitors the cell leaves open from their staircases and evaluates Bit
// only where a staircase leaves the point's fine cell open too: at most
// 1 % of the points.
func TestClassifyBatchMatchesScalarOnCampaignGrids(t *testing.T) {
	sys := core.Default()
	T := sys.Period()
	scan := make([]float64, sys.ScanN+1)
	for i := range scan {
		scan[i] = T * float64(i) / float64(sys.ScanN)
	}
	n, err := sys.Capture.Ticks(T)
	if err != nil {
		t.Fatal(err)
	}
	ticks := make([]float64, n)
	for k := range ticks {
		ticks[k] = float64(k) / sys.Capture.ClockHz
	}

	points, partly, open, bitPoints := 0, 0, 0, 0
	check := func(name string, cut core.CUT, ts []float64, noise *rng.Stream) {
		t.Helper()
		out, err := cut.Output(sys.Stimulus, biquad.OutputLP)
		if err != nil {
			t.Fatal(err)
		}
		xs := make([]float64, len(ts))
		ys := make([]float64, len(ts))
		wave.EvalInto(sys.Stimulus, ts, xs)
		wave.EvalInto(out, ts, ys)
		if noise != nil {
			eff := core.EffectiveNoiseSigma(0.005)
			for k := range xs {
				xs[k] += noise.Gauss(0, eff)
				ys[k] += noise.Gauss(0, eff)
			}
		}
		codes := make([]monitor.Code, len(ts))
		sys.Bank.ClassifyBatch(xs, ys, codes)
		for k := range xs {
			if want := sys.Bank.Classify(xs[k], ys[k]); codes[k] != want {
				t.Fatalf("%s, point %d (%v, %v): batch %06b, scalar %06b", name, k, xs[k], ys[k], codes[k], want)
			}
			coarse, fine := monitor.OpenMonitors(sys.Bank, xs[k], ys[k])
			if coarse > 0 {
				partly++
				open += coarse
			}
			if fine > 0 {
				bitPoints++
			}
		}
		points += len(ts)
	}

	src := rng.New(23)
	for d := 0; d < 20; d++ {
		cut, err := sys.Deviated(core.Deviation{
			RDrift:  src.Gauss(0, 0.02),
			RQDrift: src.Gauss(0, 0.02),
			RGDrift: src.Gauss(0, 0.02),
			CDrift:  src.Gauss(0, 0.02),
		})
		if err != nil {
			t.Fatal(err)
		}
		check("scan grid", cut, scan, nil)
	}
	for i, shift := range []float64{0, 0.01, 0.02, 0.05} {
		cut, err := sys.Shifted(shift)
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < 5; p++ {
			check("noisy tick grid", cut, ticks, rng.NewSub(41, uint64(i*5+p)))
		}
	}
	if partly == 0 {
		t.Fatal("no point fell in a partly proven cell: the per-monitor fallback went untested")
	}
	t.Logf("%d points, %d in partly proven coarse cells (%.2f open monitors each), %d (%.2f %%) calling Bit",
		points, partly, float64(open)/float64(partly), bitPoints, 100*float64(bitPoints)/float64(points))
	if bitPoints*100 > points {
		t.Fatalf("%d of %d points call Bit, want at most 1 %%", bitPoints, points)
	}
}
