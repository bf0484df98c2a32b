package testbench

import (
	"context"
	"math"
	"runtime"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/ndf"
	"repro/internal/stat"
)

// synthNullTrial is a deterministic, allocation-free stand-in for a
// noisy golden NDF measurement: a pure function of the trial index with
// enough spread to occupy many sketch buckets. Using it instead of a
// real simulator isolates the calibration engine's own memory and
// determinism properties from the trial cost.
func synthNullTrial(i int, _ *core.TrialScratch) (float64, error) {
	return 0.01 + float64(i%9973)*1.3e-5, nil
}

// The streamed (sketch) calibration is bit-identical to the exact
// materializing path: the threshold is the null maximum, which the
// sketch tracks exactly, so crossing ExactNullCutoff never moves a
// decision.
func TestCalibrateNullThresholdSketchMatchesExact(t *testing.T) {
	ctx := context.Background()
	const n = ExactNullCutoff + 1000 // force the sketch path
	eng := campaign.Engine{Workers: 2, Seed: 3}
	dec, err := CalibrateNullThreshold(ctx, eng, n, 0, synthNullTrial)
	if err != nil {
		t.Fatal(err)
	}
	nulls, err := campaign.Collect(ctx, eng, n, core.NewTrialScratch, synthNullTrial)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := ndf.ThresholdFromNull(nulls, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Threshold != exact.Threshold {
		t.Fatalf("sketch threshold %v != exact threshold %v", dec.Threshold, exact.Threshold)
	}
	// The agreement guarantee for interior quantiles is the sketch's
	// documented relative error; pin it too so the bound stays honest.
	sk := stat.NewQuantileSketch(stat.DefaultSketchPrecision)
	for _, v := range nulls {
		sk.Push(v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got, err := sk.Quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		want := stat.Quantile(nulls, q)
		if math.Abs(got-want) > sk.RelativeError()*math.Abs(want) {
			t.Fatalf("q %v: sketch %v vs exact %v exceeds documented bound %v",
				q, got, want, sk.RelativeError())
		}
	}
}

// Threshold decisions are bit-identical at 1, 4 and 8 workers, on both
// sides of the cutoff.
func TestCalibrateNullThresholdWorkerInvariant(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{ExactNullCutoff / 2, ExactNullCutoff + 1000} {
		ref, err := CalibrateNullThreshold(ctx, campaign.Engine{Workers: 1, Seed: 5}, n, 0, synthNullTrial)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{4, 8} {
			dec, err := CalibrateNullThreshold(ctx, campaign.Engine{Workers: w, Seed: 5}, n, 0, synthNullTrial)
			if err != nil {
				t.Fatal(err)
			}
			if dec.Threshold != ref.Threshold {
				t.Fatalf("n=%d workers=%d: threshold %v != 1-worker threshold %v", n, w, dec.Threshold, ref.Threshold)
			}
		}
	}
}

// A NaN measurement fails calibration with a descriptive error on both
// paths instead of silently poisoning the threshold.
func TestCalibrateNullThresholdRejectsNaN(t *testing.T) {
	ctx := context.Background()
	poison := func(i int, _ *core.TrialScratch) (float64, error) {
		if i == 17 {
			return math.NaN(), nil
		}
		return 0.01, nil
	}
	for _, n := range []int{100, ExactNullCutoff + 100} {
		if _, err := CalibrateNullThreshold(ctx, campaign.Engine{Workers: 2, Seed: 1}, n, 0, poison); err == nil {
			t.Fatalf("n=%d: NaN null measurement accepted", n)
		}
	}
}

// An out-of-range sketch precision is rejected up front.
func TestCalibrateNullThresholdBadPrecision(t *testing.T) {
	_, err := CalibrateNullThreshold(context.Background(), campaign.Engine{Workers: 1}, ExactNullCutoff+1, 99, synthNullTrial)
	if err == nil {
		t.Fatal("precision 99 accepted")
	}
}

// The memory pin of the streaming calibration, in the style of
// campaign.TestReduceFlatMemoryAt10kVs1M: total allocation at 1M null
// trials is a small multiple of 100k trials (O(workers+chunk+sketch),
// pooled chunk sketches), and an order of magnitude under what the
// materializing path allocates for the same million trials.
func TestNoiseCalibrationFlatMemory(t *testing.T) {
	ctx := context.Background()
	alloc := func(run func()) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	calibBytes := func(n int) uint64 {
		return alloc(func() {
			if _, err := CalibrateNullThreshold(ctx, campaign.Engine{Workers: 4, Seed: 2}, n, 0, synthNullTrial); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := calibBytes(100_000)
	big := calibBytes(1_000_000)
	t.Logf("streamed calibration allocated %d B at 100k trials, %d B at 1M trials", small, big)
	// The race detector defeats sync.Pool, so the pooled chunk sketches
	// are reallocated and the ratios below say nothing under -race.
	if !raceEnabled && big > 10*small+1<<20 {
		t.Fatalf("streamed calibration memory scales with trials: %d B at 100k vs %d B at 1M", small, big)
	}
	materialized := alloc(func() {
		nulls, err := campaign.Collect(ctx, campaign.Engine{Workers: 1, Seed: 2}, 1_000_000, core.NewTrialScratch, synthNullTrial)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ndf.ThresholdFromNull(nulls, 1.0); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("materializing calibration allocated %d B at 1M trials", materialized)
	if materialized < 8*1_000_000 {
		t.Fatalf("materializing path allocated only %d B for 1M trials — accounting broken?", materialized)
	}
	if !raceEnabled && big >= materialized/10 {
		t.Fatalf("streamed calibration (%d B) not an order of magnitude under materializing (%d B) at 1M trials",
			big, materialized)
	}
}
