package testbench

import (
	"context"
	"fmt"
	"math"

	"repro/internal/biquad"
	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/ndf"
)

// This file is the campaign registry's catalogue: every experiment driver
// of the package registered under a stable name with a typed,
// JSON-serializable params struct. The registry is the single campaign
// surface — Run, the CLI flags (mcmon -list, xyzone -ext/-abl), the
// report, and the mcserved HTTP service all resolve through it, so adding a campaign here makes it scriptable, servable and
// discoverable at once.
//
// Params structs carry their defaults as field values; a spec overrides
// only the fields it names. Common knobs (backend, seed, workers, chunk,
// checkpoint) live on the Spec itself, not in params.

// Fig1Params configures the "fig1" campaign.
type Fig1Params struct {
	Shift  float64 `json:"shift"`
	Points int     `json:"points"`
}

// Validate bounds the trace resolution.
func (p *Fig1Params) Validate() error { return validateSize("points", p.Points, MaxSamples) }

// Fig4Params configures the "fig4" campaign.
type Fig4Params struct {
	Points int `json:"points"`
}

// Validate bounds the trace resolution.
func (p *Fig4Params) Validate() error { return validateSize("points", p.Points, MaxGrid) }

// Fig4SpiceParams configures the "fig4spice" campaign.
type Fig4SpiceParams struct {
	Cols int `json:"cols"`
}

// Validate bounds the column count.
func (p *Fig4SpiceParams) Validate() error { return validateSize("cols", p.Cols, MaxGrid) }

// Fig4MCParams configures the "fig4mc" campaign. Monitor is the 0-based
// Table I index.
type Fig4MCParams struct {
	Monitor int `json:"monitor"`
	Dies    int `json:"dies"`
	Cols    int `json:"cols"`
}

// Validate bounds the die count, the column count, and their product:
// each (die, column) pair is one boundary search, and there are at
// most MaxTrials of them.
func (p *Fig4MCParams) Validate() error {
	if err := validateTrials("dies", p.Dies); err != nil {
		return err
	}
	if err := validateSize("cols", p.Cols, MaxGrid); err != nil {
		return err
	}
	if p.Dies*p.Cols > MaxTrials {
		return fmt.Errorf("dies × cols = %d × %d exceeds the %d-search bound", p.Dies, p.Cols, MaxTrials)
	}
	return nil
}

// Fig6Params configures the "fig6" campaign.
type Fig6Params struct {
	Shift float64 `json:"shift"`
	Grid  int     `json:"grid"`
}

// Validate bounds the zone-map grid.
func (p *Fig6Params) Validate() error { return validateSize("grid", p.Grid, MaxGrid) }

// Fig7Params configures the "fig7" campaign.
type Fig7Params struct {
	Shift  float64 `json:"shift"`
	Points int     `json:"points"`
}

// Validate bounds the chronogram resolution.
func (p *Fig7Params) Validate() error { return validateSize("points", p.Points, MaxSamples) }

// Fig8Params configures the "fig8" campaign.
type Fig8Params struct {
	MaxDev float64 `json:"max_dev"`
	Points int     `json:"points"`
	Tol    float64 `json:"tol"`
}

// Validate bounds the sweep length.
func (p *Fig8Params) Validate() error { return validateSize("points", p.Points, MaxSamples) }

// NoiseParams configures the "noise" campaign. SketchPrec has no
// effect. It stays on the wire, bounded to 0..12, so old specs and job
// logs that name it still decode and run to the same bits.
type NoiseParams struct {
	Sigma      float64   `json:"sigma"`
	Devs       []float64 `json:"devs"`
	NullTrials int       `json:"null_trials"`
	Trials     int       `json:"trials"`
	SketchPrec int       `json:"sketch_prec,omitempty"`
}

// Validate bounds the noise campaign's trial knobs, each and in total:
// null_trials + trials·(1 + len(devs)) trials run across its phases.
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
	if len(p.Devs) >= (MaxTrials-p.NullTrials)/p.Trials {
		return fmt.Errorf("null_trials + trials × (1 + len(devs)) = %d + %d × %d exceeds the %d-trial bound",
			p.NullTrials, p.Trials, 1+len(p.Devs), MaxTrials)
	}
	return validateSketchPrec(p.SketchPrec)
}

// NoiseSweepParams configures the "noisesweep" campaign. SketchPrec is
// the same no-op as in NoiseParams.
type NoiseSweepParams struct {
	Sigmas     []float64 `json:"sigmas"`
	DevGrid    []float64 `json:"dev_grid"`
	Trials     int       `json:"trials"`
	SketchPrec int       `json:"sketch_prec,omitempty"`
}

// Validate bounds the sweep's per-point trial count and its total,
// len(sigmas)·trials·(1 + len(dev_grid)) trials, and rejects a negative
// sigma as the noise campaign does. The sweep reports the first
// dev_grid entry detected at ≥ 90 % and stops probing there, with 1.0
// meaning "none in grid", so the grid must ascend strictly through
// (0, 1).
func (p *NoiseSweepParams) Validate() error {
	if err := validateTrials("trials", p.Trials); err != nil {
		return err
	}
	for i, s := range p.Sigmas {
		if s < 0 {
			return fmt.Errorf("negative sigma %v in sigmas[%d]", s, i)
		}
	}
	for i, d := range p.DevGrid {
		if !(d > 0 && d < 1) {
			return fmt.Errorf("dev_grid[%d] = %v out of (0, 1)", i, d)
		}
		if i > 0 && d <= p.DevGrid[i-1] {
			return fmt.Errorf("dev_grid[%d] = %v after %v: the grid must ascend strictly", i, d, p.DevGrid[i-1])
		}
	}
	if len(p.Sigmas) > MaxTrials/p.Trials/(1+len(p.DevGrid)) {
		return fmt.Errorf("len(sigmas) × trials × (1 + len(dev_grid)) = %d × %d × %d exceeds the %d-trial bound",
			len(p.Sigmas), p.Trials, 1+len(p.DevGrid), MaxTrials)
	}
	return validateSketchPrec(p.SketchPrec)
}

// validateSketchPrec bounds the no-op sketch_prec knob to 0..12, so a
// spec that named an out-of-range precision is still rejected, with the
// same message.
func validateSketchPrec(prec int) error {
	if prec < 0 || prec > 12 {
		return fmt.Errorf("sketch_prec = %d, want 0 (default) or 1..12", prec)
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

// Validate bounds the fault list to MaxList entries.
func (p *FaultsParams) Validate() error { return validateList("faults", len(p.Faults)) }

// faultSet is the fault list the campaign injects: Faults, or
// DefaultFaultSet when empty.
func (p *FaultsParams) faultSet() []biquad.Fault {
	if len(p.Faults) == 0 {
		return DefaultFaultSet()
	}
	return p.Faults
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

// Size bounds of the figure campaigns' resolution knobs. Each keeps the
// largest accepted value within 64 MiB of working set, or within
// MaxTrials NDF evaluations, so a single spec cannot exhaust a server.
const (
	// MaxGrid bounds grid and curve resolutions (fig4 points, fig4spice
	// and fig4mc cols, fig6 grid): a MaxGrid² fig6 zone map of 4-byte
	// codes is exactly 64 MiB.
	MaxGrid = 4096
	// MaxSamples bounds per-point sample counts (fig1 trace points,
	// fig7 chronogram points, fig8 sweep points), each at most 48 bytes.
	MaxSamples = 1 << 20
	// MaxStimOptGrid bounds the stimopt phase grid: MaxStimOptGrid² =
	// MaxTrials NDF evaluations.
	MaxStimOptGrid = 10_000
)

// validateSize is the shared bound of a size knob: positive, at most
// limit.
func validateSize(name string, n, limit int) error {
	if n < 1 {
		return fmt.Errorf("%s = %d, need at least 1", name, n)
	}
	if n > limit {
		return fmt.Errorf("%s = %d exceeds the %d bound", name, n, limit)
	}
	return nil
}

// MaxList bounds the list knobs whose every entry costs at least one
// exact signature — on the SPICE backend a settling transient of up to
// 17 periods at 2048 steps each — and, in temp, a fresh zone-LUT
// certification per temperature: temps_k, train_devs, test_devs, devs
// (metric, linear, q), shifts and faults. With MaxList entries in each
// list, every one of these campaigns ran in at most 0.3 s on one worker
// of a 2-vCPU x86-64 host (SPICE faults, q and spectral the slowest);
// the defaults use at most 16 entries.
const MaxList = 64

// validateList bounds one list knob to MaxList entries.
func validateList(name string, n int) error {
	if n > MaxList {
		return fmt.Errorf("len(%s) = %d exceeds the %d-entry list bound", name, n, MaxList)
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

// Validate bounds the temperature list to MaxList entries and each
// temperature to a finite positive value: the device model would
// simulate a non-positive one at 300 K while the payload printed it.
func (p *TempParams) Validate() error {
	if err := validateList("temps_k", len(p.TempsK)); err != nil {
		return err
	}
	for i, k := range p.TempsK {
		if !(k > 0) || math.IsInf(k, 1) {
			return fmt.Errorf("temps_k[%d] = %v K, want a finite positive temperature", i, k)
		}
	}
	return nil
}

// SpectralParams configures the "spectral" campaign.
type SpectralParams struct {
	TrainDevs []float64 `json:"train_devs"`
	TestDevs  []float64 `json:"test_devs"`
}

// Validate bounds both deviation lists to MaxList entries.
func (p *SpectralParams) Validate() error {
	if err := validateList("train_devs", len(p.TrainDevs)); err != nil {
		return err
	}
	return validateList("test_devs", len(p.TestDevs))
}

// RegressParams configures the "regress" campaign.
type RegressParams struct {
	TrainDevs []float64 `json:"train_devs"`
	TestDevs  []float64 `json:"test_devs"`
}

// Validate bounds both deviation lists to MaxList entries.
func (p *RegressParams) Validate() error {
	if err := validateList("train_devs", len(p.TrainDevs)); err != nil {
		return err
	}
	return validateList("test_devs", len(p.TestDevs))
}

// MetricParams configures the "metric" campaign.
type MetricParams struct {
	Devs []float64 `json:"devs"`
}

// Validate bounds the deviation list to MaxList entries.
func (p *MetricParams) Validate() error { return validateList("devs", len(p.Devs)) }

// CounterParams configures the "counter" campaign.
type CounterParams struct {
	Shift  float64   `json:"shift"`
	Bits   []int     `json:"bits"`
	Clocks []float64 `json:"clocks"`
}

// Bounds of the counter campaign. Each (bits, clock) pair is one capture
// of one tick code per master-clock tick, so the clock bounds a
// capture's length and the list lengths bound the number of captures.
const (
	// MaxClockHz keeps a capture of the paper's 200 µs period within
	// core.MaxTicks ticks (10⁶ ticks at the bound).
	MaxClockHz = 5e9
	// MaxCounterList bounds the bits and clocks lists.
	MaxCounterList = 16
)

// Validate bounds the counter widths to [1, 32], the clocks to finite
// rates in (0, MaxClockHz], and each list to MaxCounterList entries.
func (p *CounterParams) Validate() error {
	if len(p.Bits) > MaxCounterList || len(p.Clocks) > MaxCounterList {
		return fmt.Errorf("len(bits) = %d and len(clocks) = %d, at most %d each", len(p.Bits), len(p.Clocks), MaxCounterList)
	}
	for i, m := range p.Bits {
		if m < 1 || m > 32 {
			return fmt.Errorf("bits[%d] = %d out of [1, 32]", i, m)
		}
	}
	for i, f := range p.Clocks {
		if !(f > 0 && f <= MaxClockHz) {
			return fmt.Errorf("clocks[%d] = %g Hz out of (0, %g]", i, f, MaxClockHz)
		}
	}
	return nil
}

// LinearParams configures the "linear" campaign.
type LinearParams struct {
	Devs []float64 `json:"devs"`
}

// Validate bounds the deviation list to MaxList entries.
func (p *LinearParams) Validate() error { return validateList("devs", len(p.Devs)) }

// QParams configures the "q" campaign.
type QParams struct {
	Devs []float64 `json:"devs"`
}

// Validate bounds the deviation list to MaxList entries.
func (p *QParams) Validate() error { return validateList("devs", len(p.Devs)) }

// StimOptParams configures the "stimopt" campaign.
type StimOptParams struct {
	Shift float64 `json:"shift"`
	Grid  int     `json:"grid"`
}

// Validate bounds the phase grid.
func (p *StimOptParams) Validate() error { return validateSize("grid", p.Grid, MaxStimOptGrid) }

// BackendsParams configures the "backends" campaign.
type BackendsParams struct {
	Shifts []float64 `json:"shifts"`
}

// Validate bounds the shift list to MaxList entries.
func (p *BackendsParams) Validate() error { return validateList("shifts", len(p.Shifts)) }

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
			return runNoiseDetection(ctx, sys, p.Sigma, p.Devs, p.NullTrials, p.Trials, ev.Seed(), ev.Engine())
		})

	register("noisesweep", "minimum detectable deviation as a function of noise sigma",
		NoiseSweepParams{Sigmas: []float64{0.002, 0.005, 0.01, 0.02}, DevGrid: []float64{0.005, 0.01, 0.02, 0.05, 0.10}, Trials: 10},
		func(ctx context.Context, ev *Env, p *NoiseSweepParams) (*NoiseSweep, error) {
			sys, err := ev.System()
			if err != nil {
				return nil, err
			}
			return runNoiseSweep(ctx, sys, p.Sigmas, p.DevGrid, p.Trials, ev.Seed(), ev.Engine())
		})

	registerReduction("faults", "component-level fault campaign (parametric drifts, opens, shorts)",
		FaultsParams{Tol: 0.05}, faultReducer(),
		func(p *FaultsParams) int { return len(p.faultSet()) },
		func(ctx context.Context, ev *Env, p *FaultsParams) (func(int, *core.TrialScratch) (FaultCase, error), func([]FaultCase) *FaultTable, error) {
			dec, err := decision(ctx, ev, p.Threshold, p.Tol)
			if err != nil {
				return nil, nil, err
			}
			sys, err := ev.System()
			if err != nil {
				return nil, nil, err
			}
			trial, err := faultTrial(sys, dec, p.faultSet())
			return trial, func(cases []FaultCase) *FaultTable { return finalizeFaultTable(dec.Threshold, cases) }, err
		})

	// Threshold calibration is deterministic (corner NDFs of the resolved
	// system), so every shard's build reaches the same decision.
	registerReduction("yield", "production-flow yield/escape/overkill simulation over component tolerances",
		YieldParams{N: 400, ComponentSigma: 0.02, Tol: 0.05}, yieldReducer(),
		func(p *YieldParams) int { return p.N },
		func(ctx context.Context, ev *Env, p *YieldParams) (func(int, *core.TrialScratch) (yieldVerdict, error), func(yieldCounts) *Yield, error) {
			sys, err := ev.System()
			if err != nil {
				return nil, nil, err
			}
			var dec ndf.Decision
			if p.Threshold != nil {
				dec.Threshold = *p.Threshold
			} else if dec, err = calibrateMultiParam(ctx, sys, p.Tol); err != nil {
				return nil, nil, err
			}
			trial, err := yieldTrial(sys, dec, p.ComponentSigma, p.Tol, ev.Engine())
			return trial, func(c yieldCounts) *Yield {
				return finalizeYield(c, p.N, p.ComponentSigma, p.Tol, dec.Threshold)
			}, err
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
