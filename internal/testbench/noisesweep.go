package testbench

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/stat"
)

// NoiseSweep generalizes the paper's single-point noise experiment: for
// each noise level it calibrates a null threshold and reports the
// smallest f0 deviation in the probe grid that is detected at ≥90%,
// mapping the method's resolution as a function of measurement noise.
// MinRobust is the CI-robust version of the same rule: the smallest
// deviation whose 95% Wilson lower bound clears 90%, so the resolution
// claim survives the trial count's sampling error instead of resting
// on a point estimate.
type NoiseSweep struct {
	Sigmas        []float64
	MinDetectable []float64 // fractional deviation; 1.0 = none in grid
	// MinRobust[i] is the smallest grid deviation at Sigmas[i] whose
	// Wilson 95% lower bound is >= 0.9; 1.0 = none (either no deviation
	// clears the bar, or the trial count is too small for any count to —
	// at trials < ~60 even a perfect detector cannot make the claim).
	MinRobust []float64
	Periods   int
	Trials    int
}

// runNoiseSweep probes the deviation grid (ascending, positive) at every
// noise sigma (registry campaign "noisesweep").
// As in runNoiseDetection, every phase streams: detection probes as
// pure counts, per-sigma null calibration as a running maximum
// (CalibrateNullThreshold), and all trial streams are derived inside
// the workers — the sweep holds O(workers + chunk) whatever the trial
// count.
func runNoiseSweep(ctx context.Context, sys *core.System, sigmas, devGrid []float64, trials int, seed uint64, eng campaign.Engine) (*NoiseSweep, error) {
	const periods = 3
	out := &NoiseSweep{Sigmas: sigmas, Periods: periods, Trials: trials}
	eng.Seed = seed
	// The robust rule is only reachable when a perfect count's Wilson
	// lower bound clears 0.9; below that trial count, don't spend extra
	// probes chasing an unreachable bar.
	robustLo, _ := stat.Wilson(trials, trials, 0.95)
	robustPossible := robustLo >= 0.9
	for si, sigma := range sigmas {
		sigma := sigma
		// trialAt builds the per-trial measurement at one deviation; the
		// shifted CUT is built once and shared by the trials (backends
		// are safe for concurrent Output use).
		trialAt := func(shift float64, base uint64) (func(i int, sc *core.TrialScratch) (float64, error), error) {
			cut, err := sys.Shifted(shift)
			if err != nil {
				return nil, err
			}
			return func(i int, sc *core.TrialScratch) (float64, error) {
				// The outer pool owns the parallelism: periods run
				// serially on this worker's scratch.
				return sys.AveragedNDFScratch(cut, sigma, streamAt(eng, base, i), periods, sc)
			}, nil
		}
		// Phase p of sigma si gets stream-id base phaseBase(si*(len(devGrid)+1)+p):
		// every (sigma, phase) pair owns a disjoint 2^32-wide id space, so no
		// two measurements can reuse a noise stream at any trial count the
		// registry validates (see phaseBase).
		base := func(p int) uint64 { return phaseBase(si*(len(devGrid)+1) + p) }
		nullTrial, err := trialAt(0, base(0))
		if err != nil {
			return nil, err
		}
		dec, err := CalibrateNullThreshold(ctx, eng, trials, 0, nullTrial)
		if err != nil {
			return nil, err
		}
		minDet, minRobust := 1.0, 1.0
		for di, d := range devGrid {
			if minDet < 1 && (minRobust < 1 || !robustPossible) {
				break
			}
			trial, err := trialAt(d, base(1+di))
			if err != nil {
				return nil, err
			}
			det, err := campaign.ReduceScratch(ctx, eng, trials,
				detectReducer(dec), core.NewTrialScratch, trial)
			if err != nil {
				return nil, err
			}
			if minDet >= 1 && float64(det) >= 0.9*float64(trials) {
				minDet = d
			}
			if minRobust >= 1 && robustPossible {
				if lo, _ := stat.Wilson(det, trials, 0.95); lo >= 0.9 {
					minRobust = d
				}
			}
		}
		out.MinDetectable = append(out.MinDetectable, minDet)
		out.MinRobust = append(out.MinRobust, minRobust)
	}
	return out, nil
}

// Render prints the resolution curve: the ≥90% point rule next to its
// CI-robust counterpart (Wilson 95% lower bound ≥ 90%).
func (n *NoiseSweep) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "noise resolution sweep (%d periods averaged per measurement, %d trials/point)\n", n.Periods, n.Trials)
	b.WriteString("sigma(V)  min detectable dev  CI-robust dev\n")
	cell := func(v float64) string {
		if v >= 1 {
			return "none in grid"
		}
		return fmt.Sprintf("%.1f%%", v*100)
	}
	for i := range n.Sigmas {
		robust := "needs more trials"
		if len(n.MinRobust) > i {
			if lo, _ := stat.Wilson(n.Trials, n.Trials, 0.95); lo >= 0.9 {
				robust = cell(n.MinRobust[i])
			}
		}
		fmt.Fprintf(&b, "%.4f    %-18s  %s\n", n.Sigmas[i], cell(n.MinDetectable[i]), robust)
	}
	return b.String()
}
