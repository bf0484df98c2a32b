package testbench

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/baseline"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/ndf"
	"repro/internal/rng"
	"repro/internal/signature"
	"repro/internal/stat"
)

// Noise is the detection experiment behind the paper's claim that with
// white noise of 3σ = 0.015 V, f0 deviations as small as 1% are
// detectable. Every rate carries a 95% Wilson score interval, so the
// headline detection claims are CI-robust, not point estimates — the
// same discipline the yield and fault campaigns already follow.
type Noise struct {
	Sigma     float64
	Periods   int     // Lissajous periods averaged per measurement
	Threshold float64 // null-calibrated acceptance threshold
	Devs      []float64
	Detect    []float64 // detection rate per deviation
	// DetectLo/DetectHi bound each detection rate with a 95% Wilson
	// score interval.
	DetectLo, DetectHi []float64
	FalseRate          float64 // false-alarm rate of the threshold on fresh nulls
	// FalseLo/FalseHi bound the false-alarm rate the same way.
	FalseLo, FalseHi float64
}

// runNoiseDetection calibrates the threshold on nullTrials noisy golden
// captures (max-quantile) and measures detection rates over the given
// deviations with trials captures each (registry campaign "noise").
// Every measurement averages the NDF over 5 consecutive Lissajous
// periods (1 ms of observation), the variance-reduction step that makes
// the paper's 1% claim reachable. Every trial derives its private noise
// stream inside the worker as a pure function of (seed, phase base +
// trial index) via Engine.Stream — no serial stream pre-pass. Every
// phase streams through the reduction engine with O(workers + chunk)
// memory: the rate-estimation phases as pure counts, the null
// calibration as a running maximum (CalibrateNullThreshold).
// Million-trial specs therefore run flat-heap end to end.
func runNoiseDetection(ctx context.Context, sys *core.System, sigma float64, devs []float64, nullTrials, trials int, seed uint64, eng campaign.Engine) (*Noise, error) {
	const periods = 5
	eng.Seed = seed
	nullTrial, err := noiseTrial(sys, eng, sigma, 0, phaseBase(0), periods)
	if err != nil {
		return nil, err
	}
	dec, err := CalibrateNullThreshold(ctx, eng, nullTrials, 0, nullTrial)
	if err != nil {
		return nil, err
	}
	out := &Noise{Sigma: sigma, Periods: periods, Threshold: dec.Threshold, Devs: devs}
	// detectCount streams one phase's trials through the reducer,
	// counting threshold exceedances — the count feeds both the point
	// rate and its Wilson interval.
	detectCount := func(shift float64, base uint64) (int, error) {
		trial, err := noiseTrial(sys, eng, sigma, shift, base, periods)
		if err != nil {
			return 0, err
		}
		return campaign.ReduceScratch(ctx, eng, trials,
			detectReducer(dec), core.NewTrialScratch, trial)
	}
	// Fresh nulls for the false-alarm estimate.
	fa, err := detectCount(0, phaseBase(1))
	if err != nil {
		return nil, err
	}
	out.FalseRate = float64(fa) / float64(trials)
	out.FalseLo, out.FalseHi = stat.Wilson(fa, trials, 0.95)
	for di, d := range devs {
		det, err := detectCount(d, phaseBase(2+di))
		if err != nil {
			return nil, err
		}
		out.Detect = append(out.Detect, float64(det)/float64(trials))
		lo, hi := stat.Wilson(det, trials, 0.95)
		out.DetectLo = append(out.DetectLo, lo)
		out.DetectHi = append(out.DetectHi, hi)
	}
	return out, nil
}

// noiseTrial builds one noise phase's per-trial measurement: the
// shifted CUT and its noise plan are built once, here, and shared
// read-only by the pool, and trial i averages periods noisy periods
// drawn from stream base + i. The outer pool owns the parallelism:
// periods run serially on the worker's scratch.
func noiseTrial(sys *core.System, eng campaign.Engine, sigma, shift float64, base uint64, periods int) (func(i int, sc *core.TrialScratch) (float64, error), error) {
	cut, err := sys.Shifted(shift)
	if err != nil {
		return nil, err
	}
	plan, err := sys.NoisePlan(cut, sigma)
	if err != nil {
		return nil, err
	}
	return func(i int, sc *core.TrialScratch) (float64, error) {
		return plan.AveragedNDF(streamAt(eng, base, i), periods, sc)
	}, nil
}

// detectReducer counts trials whose averaged NDF fails the decision —
// the accumulator shape every detection-rate phase of the noise
// campaigns shares. Integer merges are exact, so the streamed count is
// bit-identical to the materialized one at any chunk size and worker
// count.
func detectReducer(dec ndf.Decision) campaign.Reducer[float64, int] {
	return campaign.Reducer[float64, int]{
		Fold: func(acc int, _ int, v float64) int {
			if !dec.Pass(v) {
				acc++
			}
			return acc
		},
		Merge: func(into, next int) int { return into + next },
	}
}

// phaseBase gives measurement phase p its own disjoint stream-id space.
// Stream ids are pure functions of (seed, id) now — unlike the old
// stateful Split, where reused ids still produced distinct streams — so
// two phases sharing an id would reuse the exact same noise draws and
// silently correlate their estimates. A 2^32 stride keeps phases
// disjoint for any trial count up to MaxTrials (1e8 < 2^32).
func phaseBase(p int) uint64 { return uint64(p) << 32 }

// streamAt derives the trial stream for a phase with its own id base —
// a pure function of (engine seed, base + i), safe to call from inside
// any worker.
func streamAt(eng campaign.Engine, base uint64, i int) *rng.Stream {
	return rng.NewSub(eng.Seed, base+uint64(i))
}

// Render summarizes the detection experiment, rates with their 95%
// Wilson intervals.
func (n *Noise) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "noise sigma = %.4f V (3σ = %.4f V), %d periods/measurement, threshold = %.4f, false-alarm = %.2f [%.2f, %.2f]\n",
		n.Sigma, 3*n.Sigma, n.Periods, n.Threshold, n.FalseRate, n.FalseLo, n.FalseHi)
	b.WriteString("dev%   detection  95% CI\n")
	for i := range n.Devs {
		fmt.Fprintf(&b, "%+5.1f  %.2f       [%.2f, %.2f]\n",
			n.Devs[i]*100, n.Detect[i], n.DetectLo[i], n.DetectHi[i])
	}
	return b.String()
}

// AblLinear compares nonlinear vs straight-line zoning (refs [12][13]):
// sensitivity of the NDF curve and hardware-cost accounting.
type AblLinear struct {
	Devs         []float64
	NonlinearNDF []float64
	LinearNDF    []float64
	NonlinearUm2 float64
	LinearUm2    float64
}

// runAblLinear sweeps both banks over the deviation grid (registry
// campaign "linear").
func runAblLinear(ctx context.Context, sys *core.System, devs []float64, eng campaign.Engine) (*AblLinear, error) {
	lin, err := baseline.NewLinearTableI()
	if err != nil {
		return nil, err
	}
	linSys, err := core.NewSystem(sys.Stimulus, sys.CUT, lin, sys.Capture)
	if err != nil {
		return nil, err
	}
	nl, err := sys.SweepF0Ctx(ctx, devs, eng)
	if err != nil {
		return nil, err
	}
	ll, err := linSys.SweepF0Ctx(ctx, devs, eng)
	if err != nil {
		return nil, err
	}
	return &AblLinear{
		Devs:         devs,
		NonlinearNDF: nl,
		LinearNDF:    ll,
		NonlinearUm2: monitor.BankArea(sys.Bank),
		LinearUm2:    float64(lin.Size()) * baseline.LinearMonitorAreaUm2,
	}, nil
}

// Render prints the comparison.
func (a *AblLinear) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "zoning ablation: nonlinear bank %.1f µm² vs straight-line bank %.1f µm² (cores only for linear)\n",
		a.NonlinearUm2, a.LinearUm2)
	b.WriteString("dev%   nonlinear  linear\n")
	for i := range a.Devs {
		fmt.Fprintf(&b, "%+5.1f  %.4f     %.4f\n", a.Devs[i]*100, a.NonlinearNDF[i], a.LinearNDF[i])
	}
	return b.String()
}

// AblCounter quantifies capture quantization: NDF error of the clocked
// capture vs the exact signature across counter widths and clock rates.
type AblCounter struct {
	Shift  float64
	Bits   []int
	Clocks []float64
	// AbsErr[i][j] is |NDF_captured - NDF_exact| at Bits[i], Clocks[j].
	AbsErr   [][]float64
	ExactNDF float64
}

// runAblCounter runs the capture-quantization ablation at one deviation
// (registry campaign "counter").
func runAblCounter(ctx context.Context, sys *core.System, shift float64, bits []int, clocks []float64) (*AblCounter, error) {
	g, err := sys.GoldenSignature()
	if err != nil {
		return nil, err
	}
	cut, err := sys.Shifted(shift)
	if err != nil {
		return nil, err
	}
	exactSig, err := sys.ExactSignature(cut)
	if err != nil {
		return nil, err
	}
	exact, err := ndf.NDF(exactSig, g)
	if err != nil {
		return nil, err
	}
	out := &AblCounter{Shift: shift, Bits: bits, Clocks: clocks, ExactNDF: exact}
	for _, m := range bits {
		row := make([]float64, len(clocks))
		for j, f := range clocks {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			cfg := signature.CaptureConfig{ClockHz: f, CounterBits: m}
			// A custom system's period may be far longer than the paper's,
			// which CounterParams bounds the clock for; NewSystem refuses
			// a capture over core.MaxTicks ticks.
			at, err := core.NewSystem(sys.Stimulus, sys.CUT, sys.Bank, cfg)
			if err != nil {
				return nil, err
			}
			at.Observe = sys.Observe
			sig, err := at.CapturedSignature(cut, 0, nil)
			if err != nil {
				return nil, err
			}
			v, err := ndf.NDF(sig, g)
			if err != nil {
				return nil, err
			}
			d := v - exact
			if d < 0 {
				d = -d
			}
			row[j] = d
		}
		out.AbsErr = append(out.AbsErr, row)
	}
	return out, nil
}

// Render prints the error matrix.
func (a *AblCounter) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "capture ablation at %+.0f%% shift (exact NDF %.4f)\nbits\\clock", a.Shift*100, a.ExactNDF)
	for _, c := range a.Clocks {
		fmt.Fprintf(&b, "  %8.0e", c)
	}
	b.WriteString("\n")
	for i, m := range a.Bits {
		fmt.Fprintf(&b, "%-9d", m)
		for _, e := range a.AbsErr[i] {
			fmt.Fprintf(&b, "  %.6f", e)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// AblRegression is the alternate-test baseline experiment: predict the
// f0 deviation from signature dwell features (refs [10][11]).
type AblRegression struct {
	TrainRMSE float64
	TestRMSE  float64
}

// runAblRegression trains on trainDevs and evaluates on testDevs
// (registry campaign "regress").
func runAblRegression(ctx context.Context, sys *core.System, trainDevs, testDevs []float64) (*AblRegression, error) {
	mkSigs := func(devs []float64) ([]*signature.Signature, error) {
		out := make([]*signature.Signature, len(devs))
		for i, d := range devs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			cut, err := sys.Shifted(d)
			if err != nil {
				return nil, err
			}
			s, err := sys.ExactSignature(cut)
			if err != nil {
				return nil, err
			}
			out[i] = s
		}
		return out, nil
	}
	trainSigs, err := mkSigs(trainDevs)
	if err != nil {
		return nil, err
	}
	reg, err := baseline.TrainRegressor(trainSigs, trainDevs)
	if err != nil {
		return nil, err
	}
	trainRMSE, err := baseline.EvaluateRegressor(reg, trainSigs, trainDevs)
	if err != nil {
		return nil, err
	}
	testSigs, err := mkSigs(testDevs)
	if err != nil {
		return nil, err
	}
	testRMSE, err := baseline.EvaluateRegressor(reg, testSigs, testDevs)
	if err != nil {
		return nil, err
	}
	return &AblRegression{TrainRMSE: trainRMSE, TestRMSE: testRMSE}, nil
}

// Render prints the regression quality.
func (a *AblRegression) Render() string {
	return fmt.Sprintf("alternate-test regression: train RMSE %.4f, held-out RMSE %.4f (fractional f0 deviation)\n",
		a.TrainRMSE, a.TestRMSE)
}
