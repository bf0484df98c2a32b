package testbench

import (
	"context"
	"encoding/json"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
)

// synthNullTrial is a deterministic, allocation-free stand-in for a
// noisy golden NDF measurement: a pure function of the trial index.
// Using it instead of a real simulator isolates the calibration
// engine's own memory and determinism properties from the trial cost.
func synthNullTrial(i int, _ *core.TrialScratch) (float64, error) {
	return 0.01 + float64(i%9973)*1.3e-5, nil
}

// scrambledNullTrial spreads the null NDFs by a multiplicative hash of
// the trial index, so the maximum sits mid-sample — inside some chunk,
// merged against chunks on both sides — rather than at the last trial.
func scrambledNullTrial(i int, _ *core.TrialScratch) (float64, error) {
	h := uint64(i+1) * 0x9e3779b97f4a7c15
	return 0.01 + float64(h>>40)*1e-9, nil
}

// collectMax is the oracle: materialize every null NDF with
// campaign.Collect and take the largest in a plain loop.
func collectMax(t *testing.T, n int, trial func(int, *core.TrialScratch) (float64, error)) float64 {
	t.Helper()
	nulls, err := campaign.Collect(context.Background(), campaign.Engine{Workers: 1}, n, core.NewTrialScratch, trial)
	if err != nil {
		t.Fatal(err)
	}
	m := nulls[0]
	for _, v := range nulls[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// The threshold is the null maximum, bit for bit, at 1, 4 and 8
// workers and at every chunk size, on both sides of the trial count
// (4096) where calibration used to switch from a materialized sample to
// streamed sketches.
func TestCalibrateNullThresholdWorkerInvariant(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{100, 5096} {
		want := collectMax(t, n, scrambledNullTrial)
		for _, w := range []int{1, 4, 8} {
			for _, chunk := range []int{0, 1, 7, 256} {
				dec, err := CalibrateNullThreshold(ctx, campaign.Engine{Workers: w, Seed: 5, Chunk: chunk}, n, 0, scrambledNullTrial)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(dec.Threshold) != math.Float64bits(want) {
					t.Fatalf("n=%d workers=%d chunk=%d: threshold %v, loop maximum %v", n, w, chunk, dec.Threshold, want)
				}
			}
		}
	}
}

// A NaN or infinite null measurement fails calibration instead of
// silently poisoning the threshold, with one error that names the
// lowest non-finite trial — the same error at any worker count, even
// when a later chunk's non-finite trial finishes first.
func TestCalibrateNullThresholdRejectsNaN(t *testing.T) {
	ctx := context.Background()
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		poison := func(i int, _ *core.TrialScratch) (float64, error) {
			if i == 37 || i == 4500 {
				return bad, nil
			}
			return 0.01, nil
		}
		var first string
		for _, w := range []int{1, 4, 8} {
			// Chunk 256 puts trials 37 and 4500 in chunks 0 and 17.
			_, err := CalibrateNullThreshold(ctx, campaign.Engine{Workers: w, Seed: 1, Chunk: 256}, 5096, 0, poison)
			if err == nil {
				t.Fatalf("%v null measurement accepted at %d workers", bad, w)
			}
			if !strings.Contains(err.Error(), "trial 37 ") || !strings.Contains(err.Error(), "finite") {
				t.Fatalf("error %q does not name trial 37 as non-finite", err)
			}
			if first == "" {
				first = err.Error()
			} else if err.Error() != first {
				t.Fatalf("workers=%d: error %q, 1 worker said %q", w, err, first)
			}
		}
	}
}

// The memory pin of the streaming calibration, in the style of
// campaign.TestReduceFlatMemoryAt10kVs1M: total allocation at 1M null
// trials is a small multiple of 100k trials (O(workers+chunk): the
// accumulator is a float64), and an order of magnitude under what
// materializing the same million trials allocates.
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
	// The race detector's instrumentation distorts allocation
	// accounting, so the ratios below say nothing under -race.
	if !raceEnabled && big > 10*small+1<<20 {
		t.Fatalf("streamed calibration memory scales with trials: %d B at 100k vs %d B at 1M", small, big)
	}
	materialized := alloc(func() { collectMax(t, 1_000_000, synthNullTrial) })
	t.Logf("materializing calibration allocated %d B at 1M trials", materialized)
	if materialized < 8*1_000_000 {
		t.Fatalf("materializing path allocated only %d B for 1M trials — accounting broken?", materialized)
	}
	if !raceEnabled && big >= materialized/10 {
		t.Fatalf("streamed calibration (%d B) not an order of magnitude under materializing (%d B) at 1M trials",
			big, materialized)
	}
}

// sketch_prec is a retired knob: a spec naming any accepted value runs
// to the same payload bits as the spec without it, and an out-of-range
// value is still rejected with the message it always had.
func TestSketchPrecIsValidatedNoOp(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct{ campaign, params string }{
		{"noise", `"sigma":0.005,"devs":[0.01,0.05],"null_trials":9,"trials":4`},
		{"noisesweep", `"sigmas":[0.005,0.02],"dev_grid":[0.01,0.05],"trials":3`},
	} {
		spec := func(extra string) Spec {
			t.Helper()
			s, err := decodeSpec([]byte(`{"campaign":"` + tc.campaign + `","seed":3,"workers":2,"chunk":4,"params":{` + tc.params + extra + `}}`))
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		payload := func(extra string) string {
			t.Helper()
			res, err := Run(ctx, spec(extra))
			if err != nil {
				t.Fatal(err)
			}
			raw, err := json.Marshal(res.Payload)
			if err != nil {
				t.Fatal(err)
			}
			return string(raw)
		}
		want := payload("")
		for _, prec := range []string{"0", "6", "12"} {
			if got := payload(`,"sketch_prec":` + prec); got != want {
				t.Fatalf("%s with sketch_prec %s: payload\n%s\nwithout it:\n%s", tc.campaign, prec, got, want)
			}
		}
		err := Validate(spec(`,"sketch_prec":99`))
		if err == nil || !strings.Contains(err.Error(), "sketch_prec = 99, want 0 (default) or 1..12") {
			t.Fatalf("%s with sketch_prec 99: Validate = %v, want the sketch_prec bound", tc.campaign, err)
		}
	}
}
