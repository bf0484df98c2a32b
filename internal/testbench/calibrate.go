package testbench

import (
	"context"
	"fmt"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/ndf"
	"repro/internal/stat"
)

// ExactNullCutoff is the null-trial count up to which calibration
// materializes the sample and takes the exact quantile. Small
// calibrations (every published experiment uses tens of trials) stay
// bit-for-bit on the historical path; above the cutoff the sample
// would dominate the campaign's heap, so calibration streams through
// per-chunk quantile sketches instead. The noise thresholds sit at
// quantile 1.0, where the sketch tracks the exact maximum — so the
// calibrated decision is bit-identical across the cutoff too, and the
// cutoff is purely a memory/allocation trade.
const ExactNullCutoff = 4096

// CalibrateNullThreshold fixes the max-quantile acceptance threshold
// from nullTrials noisy golden measurements, streaming the trials
// across the campaign pool. Below ExactNullCutoff it materializes the
// sample and calls ndf.ThresholdFromNull; above, it folds per-chunk
// quantile sketches (precision sketchPrec, 0 = stat's default) through
// campaign.Reduce — pooled, so live heap and total allocation are
// O(workers + chunk + sketch) however many trials run — and derives
// the threshold via ndf.ThresholdFromSketch. Both paths reject
// non-finite null NDFs with a descriptive error, and both are
// bit-identical at any worker count: the exact path by the engine's
// fold/merge ordering, the sketch path because integer-count merges
// are exactly associative.
func CalibrateNullThreshold(ctx context.Context, eng campaign.Engine, nullTrials, sketchPrec int, trial func(i int, sc *core.TrialScratch) (float64, error)) (ndf.Decision, error) {
	if nullTrials <= ExactNullCutoff {
		nulls, err := campaign.Collect(ctx, eng, nullTrials, core.NewTrialScratch, trial)
		if err != nil {
			return ndf.Decision{}, err
		}
		return ndf.ThresholdFromNull(nulls, 1.0)
	}
	if sketchPrec == 0 {
		sketchPrec = stat.DefaultSketchPrecision
	}
	if sketchPrec < stat.MinSketchPrecision || sketchPrec > stat.MaxSketchPrecision {
		return ndf.Decision{}, fmt.Errorf("testbench: sketch precision %d out of [%d, %d]",
			sketchPrec, stat.MinSketchPrecision, stat.MaxSketchPrecision)
	}
	red := campaign.PooledReducer(campaign.Reducer[float64, *stat.QuantileSketch]{
		New: func() *stat.QuantileSketch { return stat.NewQuantileSketch(sketchPrec) },
		Fold: func(acc *stat.QuantileSketch, _ int, v float64) *stat.QuantileSketch {
			acc.Push(v)
			return acc
		},
		Merge: func(into, next *stat.QuantileSketch) *stat.QuantileSketch {
			into.Merge(next)
			return into
		},
	}, func(s *stat.QuantileSketch) { s.Reset() })
	sk, err := campaign.ReduceScratch(ctx, eng, nullTrials, red, core.NewTrialScratch, trial)
	if err != nil {
		return ndf.Decision{}, err
	}
	return ndf.ThresholdFromSketch(sk, 1.0)
}
