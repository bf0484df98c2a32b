package testbench

import (
	"context"
	"fmt"
	"math"

	"repro/internal/biquad"
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

// Validate bounds the shift and the trace resolution.
func (p *Fig1Params) Validate() error {
	if err := validateShift("shift", p.Shift); err != nil {
		return err
	}
	return validateSize("points", p.Points, 2, MaxSamples)
}

// Fig4Params configures the "fig4" campaign.
type Fig4Params struct {
	Points int `json:"points"`
}

// Validate bounds the trace resolution.
func (p *Fig4Params) Validate() error { return validateSize("points", p.Points, 2, MaxGrid) }

// Fig4SpiceParams configures the "fig4spice" campaign.
type Fig4SpiceParams struct {
	Cols int `json:"cols"`
}

// Validate bounds the column count.
func (p *Fig4SpiceParams) Validate() error { return validateSize("cols", p.Cols, 2, MaxGrid) }

// Fig4MCParams configures the "fig4mc" campaign. Monitor is the 0-based
// Table I index.
type Fig4MCParams struct {
	Monitor int `json:"monitor"`
	Dies    int `json:"dies"`
	Cols    int `json:"cols"`
}

// Validate checks the monitor index against Table I and bounds the die
// count, the column count, and their product: each (die, column) pair
// is one boundary search, and there are at most MaxTrials of them.
func (p *Fig4MCParams) Validate() error {
	if n := len(monitor.TableI()); p.Monitor < 0 || p.Monitor >= n {
		return fmt.Errorf("monitor = %d out of the Table I range [0, %d]", p.Monitor, n-1)
	}
	if err := validateTrials("dies", p.Dies); err != nil {
		return err
	}
	if err := validateSize("cols", p.Cols, 2, MaxGrid); err != nil {
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

// Validate bounds the shift and the zone-map grid.
func (p *Fig6Params) Validate() error {
	if err := validateShift("shift", p.Shift); err != nil {
		return err
	}
	return validateSize("grid", p.Grid, 2, MaxGrid)
}

// Fig7Params configures the "fig7" campaign.
type Fig7Params struct {
	Shift  float64 `json:"shift"`
	Points int     `json:"points"`
}

// Validate bounds the shift and the chronogram resolution.
func (p *Fig7Params) Validate() error {
	if err := validateShift("shift", p.Shift); err != nil {
		return err
	}
	return validateSize("points", p.Points, 1, MaxSamples)
}

// Fig8Params configures the "fig8" campaign.
type Fig8Params struct {
	MaxDev float64 `json:"max_dev"`
	Points int     `json:"points"`
	Tol    float64 `json:"tol"`
}

// Validate bounds the sweep: it runs from −max_dev to +max_dev, so
// max_dev must lie in [0, 1) for every f0 to stay positive, and the
// threshold calibration needs two points and a positive tolerance.
func (p *Fig8Params) Validate() error {
	if !(p.MaxDev >= 0 && p.MaxDev < 1) {
		return fmt.Errorf("max_dev = %v out of [0, 1)", p.MaxDev)
	}
	if !(p.Tol > 0) || math.IsInf(p.Tol, 1) {
		return fmt.Errorf("tol = %v, want a finite positive tolerance", p.Tol)
	}
	return validateSize("points", p.Points, 2, MaxSamples)
}

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
	if err := validateSigma("sigma", p.Sigma); err != nil {
		return err
	}
	if len(p.Devs) >= (MaxTrials-p.NullTrials)/p.Trials {
		return fmt.Errorf("null_trials + trials × (1 + len(devs)) = %d + %d × %d exceeds the %d-trial bound",
			p.NullTrials, p.Trials, 1+len(p.Devs), MaxTrials)
	}
	for i, d := range p.Devs {
		if !shiftOK(d) {
			return fmt.Errorf("devs[%d] = %v, want a finite deviation above -1", i, d)
		}
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
		if !sigmaOK(s) {
			return fmt.Errorf("sigmas[%d] = %v, want a finite non-negative sigma", i, s)
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

// Validate bounds the fault list to MaxList entries of a known kind and
// target, each parametric drift to one that keeps its component
// positive (shiftOK), and checks the decision's source
// (validateDecision).
func (p *FaultsParams) Validate() error {
	if err := validateList("faults", len(p.Faults)); err != nil {
		return err
	}
	for i, f := range p.Faults {
		if f.Kind < biquad.FaultParametric || f.Kind > biquad.FaultShort || f.Target < biquad.TargetR || f.Target > biquad.TargetC {
			return fmt.Errorf("faults[%d] has kind %d and target %d, want kind 0..2 and target 0..3", i, f.Kind, f.Target)
		}
		if f.Kind == biquad.FaultParametric && !shiftOK(f.Frac) {
			return fmt.Errorf("faults[%d] drifts by %v, want a finite drift above -1", i, f.Frac)
		}
	}
	return validateDecision(p.Threshold, p.Tol)
}

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
// ComponentSigma is the relative 1σ of each die's four component
// drifts, each a Gaussian truncated to drifts above −1: a drift at or
// below −1 would make its component non-positive, so it is drawn again
// from the die's stream. At σ = 0.2 one draw in 3.5 million is drawn
// again, at σ = 0.3 one in 2300. A die with no such draw keeps the
// drifts of the untruncated Gaussian, so the truncation changes only
// dies that could not be built. ComponentSigma is bounded by
// MaxComponentSigma.
type YieldParams struct {
	N              int      `json:"n"`
	ComponentSigma float64  `json:"component_sigma"`
	Tol            float64  `json:"tol"`
	Threshold      *float64 `json:"threshold,omitempty"`
}

// MaxComponentSigma bounds the yield campaign's relative component 1σ:
// a spread of 100 % is no component tolerance, and far above it R·C
// overflows (at σ = 1e300 every die failed with a zero f0). At the
// bound, analytic seeds 1–40 and SPICE seeds 1–3 run at n = 400.
const MaxComponentSigma = 1

// Validate bounds the die count to (0, MaxTrials], the component
// spread to [0, MaxComponentSigma] and the tolerance to [0, 0.5): the
// spec band on Q is ±2·tol, and the corner calibration sets Q to
// Q0·(1 − 2·tol). An explicit threshold must be finite.
func (p *YieldParams) Validate() error {
	if err := validateTrials("n", p.N); err != nil {
		return err
	}
	if err := validateSigma("component_sigma", p.ComponentSigma); err != nil {
		return err
	}
	if p.ComponentSigma > MaxComponentSigma {
		return fmt.Errorf("component_sigma = %v exceeds %v, a relative 1σ of 100 %%", p.ComponentSigma, MaxComponentSigma)
	}
	if !(p.Tol >= 0 && p.Tol < 0.5) {
		return fmt.Errorf("tol = %v out of [0, 0.5)", p.Tol)
	}
	return validateThreshold(p.Threshold)
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

// shiftOK reports whether a fractional f0 or Q deviation is finite and
// above −1: at −1 or below the deviated f0 or Q is zero or negative,
// which every CUT backend refuses.
func shiftOK(d float64) bool { return d > -1 && !math.IsInf(d, 1) }

// sigmaOK reports whether a standard deviation is finite and
// non-negative.
func sigmaOK(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

// validateShift checks one deviation knob (shiftOK).
func validateShift(name string, d float64) error {
	if !shiftOK(d) {
		return fmt.Errorf("%s = %v, want a finite deviation above -1", name, d)
	}
	return nil
}

// validateShifts bounds a deviation list to MaxList entries and checks
// each (shiftOK).
func validateShifts(name string, ds []float64) error {
	if err := validateList(name, len(ds)); err != nil {
		return err
	}
	for i, d := range ds {
		if !shiftOK(d) {
			return fmt.Errorf("%s[%d] = %v, want a finite deviation above -1", name, i, d)
		}
	}
	return nil
}

// validateSigma checks one standard-deviation knob (sigmaOK).
func validateSigma(name string, v float64) error {
	if !sigmaOK(v) {
		return fmt.Errorf("%s = %v, want a finite non-negative sigma", name, v)
	}
	return nil
}

// validateThreshold accepts an absent or finite acceptance threshold.
func validateThreshold(thr *float64) error {
	if thr != nil && (math.IsNaN(*thr) || math.IsInf(*thr, 0)) {
		return fmt.Errorf("threshold = %v, want a finite NDF", *thr)
	}
	return nil
}

// validateDecision checks the decision source of the fault-shaped
// campaigns (see decision): an explicit threshold must be finite, and
// without one tol must lie in (0, 0.5), since the Fig. 8 calibration
// sweeps f0 over ±2·tol and needs a positive band.
func validateDecision(thr *float64, tol float64) error {
	if thr != nil {
		return validateThreshold(thr)
	}
	if !(tol > 0 && tol < 0.5) {
		return fmt.Errorf("tol = %v out of (0, 0.5), which the threshold calibration needs", tol)
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

// validateSize is the shared bound of a size knob: at least least, at
// most limit. The least is 2 where the runner spaces n points over a
// closed interval, dividing by n − 1.
func validateSize(name string, n, least, limit int) error {
	if n < least {
		return fmt.Errorf("%s = %d, need at least %d", name, n, least)
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

// Validate checks the decision's source (validateDecision).
func (p *SelfTestParams) Validate() error { return validateDecision(p.Threshold, p.Tol) }

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

// Validate checks both deviation lists (validateDevLists).
func (p *SpectralParams) Validate() error { return validateDevLists(p.TrainDevs, p.TestDevs) }

// RegressParams configures the "regress" campaign.
type RegressParams struct {
	TrainDevs []float64 `json:"train_devs"`
	TestDevs  []float64 `json:"test_devs"`
}

// Validate checks both deviation lists (validateDevLists).
func (p *RegressParams) Validate() error { return validateDevLists(p.TrainDevs, p.TestDevs) }

// validateDevLists bounds the regression campaigns' deviation lists:
// each holds 1 to MaxList valid deviations, since the fit needs a
// training point and the RMSE a held-out one.
func validateDevLists(train, test []float64) error {
	if len(train) == 0 {
		return fmt.Errorf("train_devs is empty, need at least 1 deviation")
	}
	if len(test) == 0 {
		return fmt.Errorf("test_devs is empty, need at least 1 deviation")
	}
	if err := validateShifts("train_devs", train); err != nil {
		return err
	}
	return validateShifts("test_devs", test)
}

// MetricParams configures the "metric" campaign.
type MetricParams struct {
	Devs []float64 `json:"devs"`
}

// Validate bounds the deviation list (validateShifts).
func (p *MetricParams) Validate() error { return validateShifts("devs", p.Devs) }

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
	// MinClockHz gives a capture of the paper's 200 µs period the two
	// ticks a capture needs at least.
	MinClockHz = 1e4
	// MaxCounterList bounds the bits and clocks lists.
	MaxCounterList = 16
)

// Validate bounds the shift, the counter widths to [1, 32], the clocks
// to [MinClockHz, MaxClockHz], and each list to MaxCounterList entries.
func (p *CounterParams) Validate() error {
	if err := validateShift("shift", p.Shift); err != nil {
		return err
	}
	if len(p.Bits) > MaxCounterList || len(p.Clocks) > MaxCounterList {
		return fmt.Errorf("len(bits) = %d and len(clocks) = %d, at most %d each", len(p.Bits), len(p.Clocks), MaxCounterList)
	}
	for i, m := range p.Bits {
		if m < 1 || m > 32 {
			return fmt.Errorf("bits[%d] = %d out of [1, 32]", i, m)
		}
	}
	for i, f := range p.Clocks {
		if !(f >= MinClockHz && f <= MaxClockHz) {
			return fmt.Errorf("clocks[%d] = %g Hz out of [%g, %g]", i, f, MinClockHz, MaxClockHz)
		}
	}
	return nil
}

// LinearParams configures the "linear" campaign.
type LinearParams struct {
	Devs []float64 `json:"devs"`
}

// Validate bounds the deviation list (validateShifts).
func (p *LinearParams) Validate() error { return validateShifts("devs", p.Devs) }

// QParams configures the "q" campaign.
type QParams struct {
	Devs []float64 `json:"devs"`
}

// Validate bounds the Q deviation list (validateShifts).
func (p *QParams) Validate() error { return validateShifts("devs", p.Devs) }

// StimOptParams configures the "stimopt" campaign.
type StimOptParams struct {
	Shift float64 `json:"shift"`
	Grid  int     `json:"grid"`
}

// Validate bounds the shift and the phase grid.
func (p *StimOptParams) Validate() error {
	if err := validateShift("shift", p.Shift); err != nil {
		return err
	}
	return validateSize("grid", p.Grid, 2, MaxStimOptGrid)
}

// BackendsParams configures the "backends" campaign.
type BackendsParams struct {
	Shifts []float64 `json:"shifts"`
}

// Validate bounds the shift list (validateShifts).
func (p *BackendsParams) Validate() error { return validateShifts("shifts", p.Shifts) }

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
		func(ctx context.Context, ev *Env, p *FaultsParams) (trialForms[FaultCase], func([]FaultCase) *FaultTable, error) {
			dec, err := decision(ctx, ev, p.Threshold, p.Tol)
			if err != nil {
				return trialForms[FaultCase]{}, nil, err
			}
			sys, err := ev.System()
			if err != nil {
				return trialForms[FaultCase]{}, nil, err
			}
			trial, err := faultTrial(sys, dec, p.faultSet())
			return trial, func(cases []FaultCase) *FaultTable { return finalizeFaultTable(dec.Threshold, cases) }, err
		})

	// Threshold calibration is deterministic (corner NDFs of the resolved
	// system), so every shard's build reaches the same decision.
	registerReduction("yield", "production-flow yield/escape/overkill simulation over component tolerances",
		YieldParams{N: 400, ComponentSigma: 0.02, Tol: 0.05}, yieldReducer(),
		func(p *YieldParams) int { return p.N },
		func(ctx context.Context, ev *Env, p *YieldParams) (trialForms[yieldVerdict], func(yieldCounts) *Yield, error) {
			sys, err := ev.System()
			if err != nil {
				return trialForms[yieldVerdict]{}, nil, err
			}
			var dec ndf.Decision
			if p.Threshold != nil {
				dec.Threshold = *p.Threshold
			} else if dec, err = calibrateMultiParam(ctx, sys, p.Tol); err != nil {
				return trialForms[yieldVerdict]{}, nil, err
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
