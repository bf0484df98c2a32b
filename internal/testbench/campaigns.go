package testbench

import (
	"context"
	"fmt"

	"repro/internal/biquad"
	"repro/internal/monitor"
	"repro/internal/ndf"
	"repro/internal/stat"
)

// This file is the campaign registry's catalogue: every experiment driver
// of the package registered under a stable name with a typed,
// JSON-serializable params struct. The registry is the single campaign
// surface — Run, the CLI flags (mcmon -list, xyzone -ext/-abl), the
// report, and the mcserved HTTP service all resolve through it, so adding a campaign here makes it scriptable, servable and
// discoverable at once.
//
// Params structs carry their defaults as field values; a spec overrides
// only the fields it names. Common knobs (backend, seed, workers, scalar
// engine) live on the Spec itself, not in params.

// Fig1Params configures the "fig1" campaign.
type Fig1Params struct {
	Shift  float64 `json:"shift"`
	Points int     `json:"points"`
}

// Fig4Params configures the "fig4" campaign.
type Fig4Params struct {
	Points int `json:"points"`
}

// Fig4SpiceParams configures the "fig4spice" campaign.
type Fig4SpiceParams struct {
	Cols int `json:"cols"`
}

// Fig4MCParams configures the "fig4mc" campaign. Monitor is the 0-based
// Table I index.
type Fig4MCParams struct {
	Monitor int `json:"monitor"`
	Dies    int `json:"dies"`
	Cols    int `json:"cols"`
}

// Validate bounds the die count.
func (p *Fig4MCParams) Validate() error {
	return validateTrials("dies", p.Dies)
}

// Fig6Params configures the "fig6" campaign.
type Fig6Params struct {
	Shift float64 `json:"shift"`
	Grid  int     `json:"grid"`
}

// Fig7Params configures the "fig7" campaign.
type Fig7Params struct {
	Shift  float64 `json:"shift"`
	Points int     `json:"points"`
}

// Fig8Params configures the "fig8" campaign.
type Fig8Params struct {
	MaxDev float64 `json:"max_dev"`
	Points int     `json:"points"`
	Tol    float64 `json:"tol"`
}

// NoiseParams configures the "noise" campaign. SketchPrec is the
// quantile-sketch precision used when NullTrials exceeds
// testbench.ExactNullCutoff and the null calibration streams (0 picks
// stat.DefaultSketchPrecision); below the cutoff it is unused.
type NoiseParams struct {
	Sigma      float64   `json:"sigma"`
	Devs       []float64 `json:"devs"`
	NullTrials int       `json:"null_trials"`
	Trials     int       `json:"trials"`
	SketchPrec int       `json:"sketch_prec,omitempty"`
}

// Validate bounds the noise campaign's trial knobs.
func (p *NoiseParams) Validate() error {
	if err := validateTrials("trials", p.Trials); err != nil {
		return err
	}
	if err := validateTrials("null_trials", p.NullTrials); err != nil {
		return err
	}
	if p.Sigma < 0 {
		return fmt.Errorf("negative sigma %v", p.Sigma)
	}
	return validateSketchPrec(p.SketchPrec)
}

// NoiseSweepParams configures the "noisesweep" campaign. SketchPrec is
// as in NoiseParams, applied to each per-sigma null calibration.
type NoiseSweepParams struct {
	Sigmas     []float64 `json:"sigmas"`
	DevGrid    []float64 `json:"dev_grid"`
	Trials     int       `json:"trials"`
	SketchPrec int       `json:"sketch_prec,omitempty"`
}

// Validate bounds the sweep's per-point trial count.
func (p *NoiseSweepParams) Validate() error {
	if err := validateTrials("trials", p.Trials); err != nil {
		return err
	}
	return validateSketchPrec(p.SketchPrec)
}

// validateSketchPrec is the shared sketch-precision bound: 0 (use the
// default) or a valid stat.NewQuantileSketch precision.
func validateSketchPrec(prec int) error {
	if prec != 0 && (prec < stat.MinSketchPrecision || prec > stat.MaxSketchPrecision) {
		return fmt.Errorf("sketch_prec = %d, want 0 (default) or %d..%d",
			prec, stat.MinSketchPrecision, stat.MaxSketchPrecision)
	}
	return nil
}

// FaultsParams configures the "faults" campaign. A nil Threshold
// calibrates one from Tol first (Fig. 8 band construction); an empty
// fault list runs DefaultFaultSet.
type FaultsParams struct {
	Threshold *float64       `json:"threshold,omitempty"`
	Tol       float64        `json:"tol"`
	Faults    []biquad.Fault `json:"faults,omitempty"`
}

// YieldParams configures the "yield" campaign. A nil Threshold
// calibrates one at the multi-parameter spec corners first. N is the
// die count — the streaming reduction keeps memory flat, so production
// runs of 10M+ dies validate and execute with O(workers) heap.
type YieldParams struct {
	N              int      `json:"n"`
	ComponentSigma float64  `json:"component_sigma"`
	Tol            float64  `json:"tol"`
	Threshold      *float64 `json:"threshold,omitempty"`
}

// Validate bounds the die count to (0, MaxTrials].
func (p *YieldParams) Validate() error {
	return validateTrials("n", p.N)
}

// validateTrials is the shared trial-count bound: positive, at most
// MaxTrials.
func validateTrials(name string, n int) error {
	if n < 1 {
		return fmt.Errorf("%s = %d, need at least 1 trial", name, n)
	}
	if n > MaxTrials {
		return fmt.Errorf("%s = %d exceeds the %d-trial bound", name, n, MaxTrials)
	}
	return nil
}

// SelfTestParams configures the "selftest" campaign. A nil Threshold
// calibrates one from Tol first.
type SelfTestParams struct {
	Threshold *float64 `json:"threshold,omitempty"`
	Tol       float64  `json:"tol"`
}

// TempParams configures the "temp" campaign.
type TempParams struct {
	TempsK []float64 `json:"temps_k"`
}

// SpectralParams configures the "spectral" campaign.
type SpectralParams struct {
	TrainDevs []float64 `json:"train_devs"`
	TestDevs  []float64 `json:"test_devs"`
}

// RegressParams configures the "regress" campaign.
type RegressParams struct {
	TrainDevs []float64 `json:"train_devs"`
	TestDevs  []float64 `json:"test_devs"`
}

// MetricParams configures the "metric" campaign.
type MetricParams struct {
	Devs []float64 `json:"devs"`
}

// CounterParams configures the "counter" campaign.
type CounterParams struct {
	Shift  float64   `json:"shift"`
	Bits   []int     `json:"bits"`
	Clocks []float64 `json:"clocks"`
}

// LinearParams configures the "linear" campaign.
type LinearParams struct {
	Devs []float64 `json:"devs"`
}

// QParams configures the "q" campaign.
type QParams struct {
	Devs []float64 `json:"devs"`
}

// StimOptParams configures the "stimopt" campaign.
type StimOptParams struct {
	Shift float64 `json:"shift"`
	Grid  int     `json:"grid"`
}

// BackendsParams configures the "backends" campaign.
type BackendsParams struct {
	Shifts []float64 `json:"shifts"`
}

// Table1Params configures the "table1" campaign (no knobs).
type Table1Params struct{}

// CornersParams configures the "corners" campaign (no knobs).
type CornersParams struct{}

// decision resolves the acceptance threshold shared by the fault-shaped
// campaigns: an explicit threshold wins (even zero — "everything moves
// fails"); otherwise a Fig. 8 tolerance calibration runs on the
// campaign's engine.
func decision(ctx context.Context, ev *Env, threshold *float64, tol float64) (ndf.Decision, error) {
	if threshold != nil {
		return ndf.Decision{Threshold: *threshold}, nil
	}
	sys, err := ev.System()
	if err != nil {
		return ndf.Decision{}, err
	}
	return sys.CalibrateFromToleranceCtx(ctx, tol, 9, ev.Engine())
}

func init() {
	register("fig1", "Lissajous traces of the golden and f0-shifted CUT (Fig. 1)",
		Fig1Params{Shift: 0.10, Points: 512},
		func(ctx context.Context, ev *Env, p *Fig1Params) (*Fig1, error) {
			sys, err := ev.System()
			if err != nil {
				return nil, err
			}
			return runFig1(sys, p.Shift, p.Points)
		})

	register("table1", "the six published monitor input configurations (Table I)",
		Table1Params{},
		func(ctx context.Context, ev *Env, p *Table1Params) (*Table1, error) {
			return &Table1{Configs: monitor.TableI()}, nil
		})

	register("fig4", "Table I boundary control curves from the analytic monitor model (Fig. 4)",
		Fig4Params{Points: 41},
		func(ctx context.Context, ev *Env, p *Fig4Params) (*Fig4, error) {
			return runFig4(ctx, p.Points)
		})

	register("fig4spice", "Table I boundaries re-traced at transistor level by the MNA solver (Fig. 4 cross-check)",
		Fig4SpiceParams{Cols: 21},
		func(ctx context.Context, ev *Env, p *Fig4SpiceParams) (*Fig4, error) {
			return runFig4Spice(ctx, p.Cols)
		})

	register("fig4mc", "Monte-Carlo process/mismatch envelope of one Table I boundary (Fig. 4 MC validation)",
		Fig4MCParams{Monitor: 2, Dies: 200, Cols: 21},
		func(ctx context.Context, ev *Env, p *Fig4MCParams) (*Fig4MC, error) {
			return runFig4MC(ctx, p.Monitor, p.Dies, p.Cols, ev.Seed(), ev.Engine())
		})

	register("fig6", "zone codification map and golden/deviated traversal sequences (Fig. 6)",
		Fig6Params{Shift: 0.10, Grid: 101},
		func(ctx context.Context, ev *Env, p *Fig6Params) (*Fig6, error) {
			sys, err := ev.System()
			if err != nil {
				return nil, err
			}
			return runFig6(sys, p.Shift, p.Grid)
		})

	register("fig7", "decimal-coded signature chronograms, Hamming trace and NDF (Fig. 7)",
		Fig7Params{Shift: 0.10, Points: 400},
		func(ctx context.Context, ev *Env, p *Fig7Params) (*Fig7, error) {
			sys, err := ev.System()
			if err != nil {
				return nil, err
			}
			return runFig7(sys, p.Shift, p.Points)
		})

	register("fig8", "NDF vs f0 deviation sweep with PASS/FAIL calibration (Fig. 8)",
		Fig8Params{MaxDev: 0.20, Points: 17, Tol: 0.05},
		func(ctx context.Context, ev *Env, p *Fig8Params) (*Fig8, error) {
			sys, err := ev.System()
			if err != nil {
				return nil, err
			}
			return runFig8(ctx, sys, p.MaxDev, p.Points, p.Tol, ev.Engine())
		})

	register("noise", "noisy detection-rate experiment behind the paper's 1% claim",
		NoiseParams{Sigma: 0.005, Devs: []float64{0.005, 0.01, 0.02, 0.05}, NullTrials: 20, Trials: 20},
		func(ctx context.Context, ev *Env, p *NoiseParams) (*Noise, error) {
			sys, err := ev.System()
			if err != nil {
				return nil, err
			}
			return runNoiseDetection(ctx, sys, p.Sigma, p.Devs, p.NullTrials, p.Trials, p.SketchPrec, ev.Seed(), ev.Engine())
		})

	register("noisesweep", "minimum detectable deviation as a function of noise sigma",
		NoiseSweepParams{Sigmas: []float64{0.002, 0.005, 0.01, 0.02}, DevGrid: []float64{0.005, 0.01, 0.02, 0.05, 0.10}, Trials: 10},
		func(ctx context.Context, ev *Env, p *NoiseSweepParams) (*NoiseSweep, error) {
			sys, err := ev.System()
			if err != nil {
				return nil, err
			}
			return runNoiseSweep(ctx, sys, p.Sigmas, p.DevGrid, p.Trials, p.SketchPrec, ev.Seed(), ev.Engine())
		})

	register("faults", "component-level fault campaign (parametric drifts, opens, shorts)",
		FaultsParams{Tol: 0.05},
		func(ctx context.Context, ev *Env, p *FaultsParams) (*FaultTable, error) {
			dec, err := decision(ctx, ev, p.Threshold, p.Tol)
			if err != nil {
				return nil, err
			}
			sys, err := ev.System()
			if err != nil {
				return nil, err
			}
			faults := p.Faults
			if len(faults) == 0 {
				faults = DefaultFaultSet()
			}
			return runFaultTable(ctx, sys, dec, faults, ev.Engine())
		})

	register("yield", "production-flow yield/escape/overkill simulation over component tolerances",
		YieldParams{N: 400, ComponentSigma: 0.02, Tol: 0.05},
		func(ctx context.Context, ev *Env, p *YieldParams) (*Yield, error) {
			sys, err := ev.System()
			if err != nil {
				return nil, err
			}
			var dec ndf.Decision
			if p.Threshold != nil {
				dec.Threshold = *p.Threshold
			} else if dec, err = calibrateMultiParam(ctx, sys, p.Tol); err != nil {
				return nil, err
			}
			return runYield(ctx, sys, dec, p.N, p.ComponentSigma, p.Tol, ev.Engine())
		})

	register("selftest", "monitor-BIST stuck-at campaign: the bank screens itself",
		SelfTestParams{Tol: 0.05},
		func(ctx context.Context, ev *Env, p *SelfTestParams) (*SelfTest, error) {
			dec, err := decision(ctx, ev, p.Threshold, p.Tol)
			if err != nil {
				return nil, err
			}
			sys, err := ev.System()
			if err != nil {
				return nil, err
			}
			return runSelfTest(ctx, sys, dec)
		})

	register("corners", "spurious golden-CUT NDF at the five foundry sign-off corners",
		CornersParams{},
		func(ctx context.Context, ev *Env, p *CornersParams) (*CornerDrift, error) {
			sys, err := ev.System()
			if err != nil {
				return nil, err
			}
			return runCornerDrift(ctx, sys)
		})

	register("temp", "spurious golden-CUT NDF vs monitor junction temperature",
		TempParams{TempsK: []float64{233, 273, 300, 323, 358, 398}},
		func(ctx context.Context, ev *Env, p *TempParams) (*TempDrift, error) {
			sys, err := ev.System()
			if err != nil {
				return nil, err
			}
			return runTempDrift(ctx, sys, p.TempsK)
		})

	register("spectral", "alternate-test features: signature dwell vs Goertzel spectral regression",
		SpectralParams{TrainDevs: defaultTrainDevs(), TestDevs: defaultTestDevs()},
		func(ctx context.Context, ev *Env, p *SpectralParams) (*AblSpectral, error) {
			sys, err := ev.System()
			if err != nil {
				return nil, err
			}
			return runAblSpectral(ctx, sys, p.TrainDevs, p.TestDevs)
		})

	register("regress", "alternate-test regression of f0 deviation from dwell features",
		RegressParams{TrainDevs: defaultTrainDevs(), TestDevs: defaultTestDevs()},
		func(ctx context.Context, ev *Env, p *RegressParams) (*AblRegression, error) {
			sys, err := ev.System()
			if err != nil {
				return nil, err
			}
			return runAblRegression(ctx, sys, p.TrainDevs, p.TestDevs)
		})

	register("metric", "metric ablation: time-weighted NDF vs sequence edit distance",
		MetricParams{Devs: []float64{-0.10, -0.05, -0.02, -0.005, 0.005, 0.02, 0.05, 0.10}},
		func(ctx context.Context, ev *Env, p *MetricParams) (*AblMetric, error) {
			sys, err := ev.System()
			if err != nil {
				return nil, err
			}
			return runAblMetric(ctx, sys, p.Devs)
		})

	register("counter", "capture quantization ablation across counter widths and clock rates",
		CounterParams{Shift: 0.10, Bits: []int{8, 12, 16}, Clocks: []float64{1e6, 10e6, 100e6}},
		func(ctx context.Context, ev *Env, p *CounterParams) (*AblCounter, error) {
			sys, err := ev.System()
			if err != nil {
				return nil, err
			}
			return runAblCounter(ctx, sys, p.Shift, p.Bits, p.Clocks)
		})

	register("linear", "zoning ablation: nonlinear Table I bank vs straight-line baseline",
		LinearParams{Devs: []float64{-0.15, -0.10, -0.05, -0.02, 0.02, 0.05, 0.10, 0.15}},
		func(ctx context.Context, ev *Env, p *LinearParams) (*AblLinear, error) {
			sys, err := ev.System()
			if err != nil {
				return nil, err
			}
			return runAblLinear(ctx, sys, p.Devs, ev.Engine())
		})

	register("q", "Q-verification extension: NDF vs Q deviation, LP- and BP-observed",
		QParams{Devs: []float64{-0.40, -0.20, -0.10, 0.10, 0.20, 0.40}},
		func(ctx context.Context, ev *Env, p *QParams) (*ExtQ, error) {
			sys, err := ev.System()
			if err != nil {
				return nil, err
			}
			return runExtQ(ctx, sys, p.Devs)
		})

	register("stimopt", "stimulus phase optimization maximizing NDF response",
		StimOptParams{Shift: 0.05, Grid: 6},
		func(ctx context.Context, ev *Env, p *StimOptParams) (*StimOpt, error) {
			sys, err := ev.System()
			if err != nil {
				return nil, err
			}
			return runStimOpt(ctx, sys, p.Shift, p.Grid)
		})

	register("backends", "SPICE-vs-analytic cross-validation sweep (builds both systems itself)",
		BackendsParams{Shifts: []float64{-0.10, -0.05, 0.05, 0.10}},
		func(ctx context.Context, ev *Env, p *BackendsParams) (*BackendAgreement, error) {
			return runBackendAgreement(ctx, p.Shifts, ev.Engine())
		})
}

// defaultTrainDevs is the regression campaigns' shared training grid.
func defaultTrainDevs() []float64 {
	return []float64{-0.20, -0.15, -0.10, -0.06, -0.03, 0, 0.03, 0.06, 0.10, 0.15, 0.20}
}

// defaultTestDevs is the regression campaigns' shared held-out grid.
func defaultTestDevs() []float64 {
	return []float64{-0.12, -0.04, 0.07, 0.12}
}
