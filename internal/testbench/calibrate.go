package testbench

import (
	"context"
	"fmt"
	"math"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/ndf"
)

// ExactNullCutoff is read by nothing in this module. It stays only
// because cmd/mcbench sizes its noise-analytic workload from it (4100
// null trials).
const ExactNullCutoff = 4096

// CalibrateNullThreshold fixes the acceptance threshold at the largest
// of nullTrials noisy golden measurements (quantile 1 of the null NDF
// distribution), folding the trials through one campaign.ReduceScratch
// at the engine's chunk size: O(workers + chunk) memory at any trial
// count. A maximum over finite values is exactly associative and
// commutative, so the threshold is bit-identical at any worker count
// and chunk size, and equal to the largest element of the sorted
// sample: ndf.NDF integrates from +0 over non-negative terms, so no
// null NDF is -0 and signed zeros never tie.
//
// A NaN or infinite null NDF fails the calibration with an error naming
// the lowest-index non-finite trial — the engine's lowest-index error
// contract, so the error is the same at any worker count.
//
// The fourth parameter is ignored. It stays only because cmd/mcbench
// passes it.
func CalibrateNullThreshold(ctx context.Context, eng campaign.Engine, nullTrials, _ int, trial func(i int, sc *core.TrialScratch) (float64, error)) (ndf.Decision, error) {
	if nullTrials < 1 {
		return ndf.Decision{}, fmt.Errorf("testbench: null calibration needs at least 1 trial, got %d", nullTrials)
	}
	finite := func(i int, sc *core.TrialScratch) (float64, error) {
		v, err := trial(i, sc)
		if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
			err = fmt.Errorf("testbench: null trial %d of %d is %v, not a finite NDF", i, nullTrials, v)
		}
		return v, err
	}
	thr, err := campaign.ReduceScratch(ctx, eng, nullTrials, campaign.Reducer[float64, float64]{
		New:   func() float64 { return math.Inf(-1) },
		Fold:  func(acc float64, _ int, v float64) float64 { return max(acc, v) },
		Merge: func(into, next float64) float64 { return max(into, next) },
	}, core.NewTrialScratch, finite)
	if err != nil {
		return ndf.Decision{}, err
	}
	return ndf.Decision{Threshold: thr}, nil
}
