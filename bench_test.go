// Package repro's root benchmark harness: one benchmark per table and
// figure of the paper's evaluation (each benchmark's comment names its
// artifact; `go run ./cmd/mcmon -list` lists the campaigns behind them).
// Each benchmark regenerates its artifact end to end and reports the
// headline quantity through b.ReportMetric so `go test -bench=.` prints
// the paper-vs-measured comparison alongside timing.
package repro

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"repro/internal/biquad"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/ndf"
	"repro/internal/rng"
	"repro/internal/signature"
	"repro/internal/testbench"
	"repro/internal/wave"
	"repro/internal/zone"
)

// runCampaign runs a registry campaign through testbench.Run — on sys
// when it is non-nil, else on the system the spec names — and returns
// its typed payload.
func runCampaign[R any](b *testing.B, sys *core.System, spec testbench.Spec) *R {
	b.Helper()
	var opts []testbench.Option
	if sys != nil {
		opts = append(opts, testbench.WithSystem(sys))
	}
	res, err := testbench.Run(context.Background(), spec, opts...)
	if err != nil {
		b.Fatal(err)
	}
	return res.Payload.(*R)
}

// FIG1: Lissajous composition, nominal vs +10% f0 (Fig. 1).
func BenchmarkFig1Lissajous(b *testing.B) {
	sys := core.Default()
	var maxDev float64
	for i := 0; i < b.N; i++ {
		f := runCampaign[testbench.Fig1](b, sys, testbench.Spec{Campaign: "fig1", Params: testbench.Fig1Params{Shift: 0.10, Points: 512}})
		maxDev = 0
		for j := range f.Golden {
			dx := f.Golden[j].X - f.Defective[j].X
			dy := f.Golden[j].Y - f.Defective[j].Y
			if d := dx*dx + dy*dy; d > maxDev {
				maxDev = d
			}
		}
	}
	b.ReportMetric(maxDev, "maxdev²")
}

// TAB1: the six monitor configurations (Table I).
func BenchmarkTable1Configs(b *testing.B) {
	var curves int
	for i := 0; i < b.N; i++ {
		curves = 0
		for _, cfg := range monitor.TableI() {
			a, err := monitor.NewAnalytic(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if pts := a.TraceBoundary(0, 1, 21); len(pts) > 0 {
				curves++
			}
		}
	}
	b.ReportMetric(float64(curves), "curves")
}

// FIG4: experimental control curves from the transistor-level monitor
// (one MNA-extracted boundary point per iteration) next to the analytic
// family.
func BenchmarkFig4Boundaries(b *testing.B) {
	f := runCampaign[testbench.Fig4](b, nil, testbench.Spec{Campaign: "fig4", Params: testbench.Fig4Params{Points: 41}})
	total := 0
	for _, c := range f.Curves {
		total += len(c)
	}
	sm, err := monitor.NewSpice(monitor.TableI()[2], nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var y float64
	for i := 0; i < b.N; i++ {
		var ok bool
		y, ok = sm.BoundaryY(0.4, 0, 1)
		if !ok {
			b.Fatal("no boundary at x=0.4")
		}
	}
	b.ReportMetric(float64(total), "analytic_pts")
	b.ReportMetric(y, "spice_y@0.4")
}

// FIG4-MC: Monte Carlo envelope of curve 3 (process + mismatch).
func BenchmarkFig4MonteCarlo(b *testing.B) {
	var inside float64
	for i := 0; i < b.N; i++ {
		env := runCampaign[testbench.Fig4MC](b, nil, testbench.Spec{Campaign: "fig4mc", Seed: 7, Params: testbench.Fig4MCParams{Monitor: 2, Dies: 60, Cols: 15}})
		inside = env.NominalInsideEnvelope()
	}
	b.ReportMetric(inside, "nominal_inside")
}

// FIG6: zone codification — partition size and Gray-property check.
func BenchmarkFig6ZoneMap(b *testing.B) {
	bank := monitor.NewAnalyticTableI()
	var zones, violations int
	for i := 0; i < b.N; i++ {
		zm, err := zone.Build(bank, 0, 1, 101)
		if err != nil {
			b.Fatal(err)
		}
		zones = zm.NumZones()
		violations = len(zm.GrayViolations())
	}
	b.ReportMetric(float64(zones), "zones")
	b.ReportMetric(float64(violations), "gray_violations")
}

// FIG7: signature chronogram and the headline NDF = 0.1021 at +10%.
func BenchmarkFig7Chronogram(b *testing.B) {
	sys := core.Default()
	var v float64
	for i := 0; i < b.N; i++ {
		f := runCampaign[testbench.Fig7](b, sys, testbench.Spec{Campaign: "fig7", Params: testbench.Fig7Params{Shift: 0.10, Points: 400}})
		v = f.NDF
	}
	// Paper reference value: 0.1021.
	b.ReportMetric(v, "NDF@+10%")
}

// FIG8: the NDF-vs-deviation acceptance curve.
func BenchmarkFig8NDFSweep(b *testing.B) {
	sys := core.Default()
	var left, right float64
	for i := 0; i < b.N; i++ {
		f := runCampaign[testbench.Fig8](b, sys, testbench.Spec{Campaign: "fig8", Params: testbench.Fig8Params{MaxDev: 0.20, Points: 9, Tol: 0.05}})
		left, right = f.NDFs[0], f.NDFs[len(f.NDFs)-1]
	}
	b.ReportMetric(left, "NDF@-20%")
	b.ReportMetric(right, "NDF@+20%")
}

// NOISE: detectability of 1% deviations under 3σ = 0.015 V noise.
func BenchmarkNoiseDetection(b *testing.B) {
	sys := core.Default()
	var det1 float64
	for i := 0; i < b.N; i++ {
		n := runCampaign[testbench.Noise](b, sys, testbench.Spec{Campaign: "noise", Seed: 42, Params: testbench.NoiseParams{Sigma: 0.005, Devs: []float64{0.01}, NullTrials: 8, Trials: 8}})
		det1 = n.Detect[0]
	}
	b.ReportMetric(det1, "detect@1%")
}

// ABL-LIN: straight-line zoning baseline (refs [12][13]).
func BenchmarkAblationLinearZoning(b *testing.B) {
	sys := core.Default()
	var ratio float64
	for i := 0; i < b.N; i++ {
		a := runCampaign[testbench.AblLinear](b, sys, testbench.Spec{Campaign: "linear", Params: testbench.LinearParams{Devs: []float64{-0.10, 0.10}}})
		ratio = a.LinearUm2 / a.NonlinearUm2
	}
	b.ReportMetric(ratio, "area_ratio_linear/nonlinear")
}

// ABL-CNT: counter width / master clock quantization.
func BenchmarkAblationCounter(b *testing.B) {
	sys := core.Default()
	var worst float64
	for i := 0; i < b.N; i++ {
		a := runCampaign[testbench.AblCounter](b, sys, testbench.Spec{Campaign: "counter", Params: testbench.CounterParams{Shift: 0.10, Bits: []int{8, 16}, Clocks: []float64{1e6, 10e6}}})
		worst = 0
		for _, row := range a.AbsErr {
			for _, e := range row {
				if e > worst {
					worst = e
				}
			}
		}
	}
	b.ReportMetric(worst, "worst_NDF_error")
}

// ABL-REG: alternate-test regression baseline (ref [11]).
func BenchmarkAblationRegression(b *testing.B) {
	sys := core.Default()
	var rmse float64
	for i := 0; i < b.N; i++ {
		a := runCampaign[testbench.AblRegression](b, sys, testbench.Spec{Campaign: "regress", Params: testbench.RegressParams{TrainDevs: []float64{-0.20, -0.15, -0.10, -0.06, -0.03, 0, 0.03, 0.06, 0.10, 0.15, 0.20}, TestDevs: []float64{-0.12, -0.04, 0.07, 0.12}}})
		rmse = a.TestRMSE
	}
	b.ReportMetric(rmse, "heldout_RMSE")
}

// EXT-Q: Q-verification extension (band-pass observation).
func BenchmarkExtensionQVerification(b *testing.B) {
	sys := core.Default()
	var bp20 float64
	for i := 0; i < b.N; i++ {
		e := runCampaign[testbench.ExtQ](b, sys, testbench.Spec{Campaign: "q", Params: testbench.QParams{Devs: []float64{0.20}}})
		bp20 = e.BPNDF[0]
	}
	b.ReportMetric(bp20, "BP_NDF@Q+20%")
}

// EXT-FAULTS: component-level fault campaign on the Tow-Thomas design.
func BenchmarkExtensionFaultCampaign(b *testing.B) {
	sys := core.Default()
	dec, err := sys.CalibrateFromToleranceCtx(context.Background(), 0.05, 9, campaign.Engine{})
	if err != nil {
		b.Fatal(err)
	}
	var coverage float64
	for i := 0; i < b.N; i++ {
		tab := runCampaign[testbench.FaultTable](b, sys, testbench.Spec{Campaign: "faults", Params: testbench.FaultsParams{Threshold: &dec.Threshold, Faults: testbench.DefaultFaultSet()}})
		coverage = tab.Coverage()
	}
	b.ReportMetric(coverage, "coverage")
}

// ABL-MET: NDF vs sequence edit distance (ref [12] comparison style).
func BenchmarkAblationMetric(b *testing.B) {
	sys := core.Default()
	var ndfRes, editRes float64
	for i := 0; i < b.N; i++ {
		a := runCampaign[testbench.AblMetric](b, sys, testbench.Spec{Campaign: "metric", Params: testbench.MetricParams{Devs: []float64{-0.05, -0.02, -0.005, 0.005, 0.02, 0.05}}})
		ndfRes, editRes = a.SmallestMoved()
	}
	b.ReportMetric(ndfRes, "NDF_resolution")
	b.ReportMetric(editRes, "edit_resolution")
}

// EXT-TEMP: spurious NDF of a golden CUT vs monitor temperature.
func BenchmarkExtensionTempDrift(b *testing.B) {
	sys := core.Default()
	var at350 float64
	for i := 0; i < b.N; i++ {
		td := runCampaign[testbench.TempDrift](b, sys, testbench.Spec{Campaign: "temp", Params: testbench.TempParams{TempsK: []float64{350}}})
		at350 = td.NDFs[0]
	}
	b.ReportMetric(at350, "NDF@350K")
}

// ABL-SPEC: dwell features vs Goertzel spectral features.
func BenchmarkAblationSpectral(b *testing.B) {
	sys := core.Default()
	var rmse float64
	for i := 0; i < b.N; i++ {
		a := runCampaign[testbench.AblSpectral](b, sys, testbench.Spec{Campaign: "spectral", Params: testbench.SpectralParams{TrainDevs: []float64{-0.20, -0.10, -0.03, 0, 0.03, 0.10, 0.20}, TestDevs: []float64{-0.12, 0.07}}})
		rmse = a.SpectralRMSE
	}
	b.ReportMetric(rmse, "spectral_RMSE")
}

// NOISE-SWEEP: resolution vs noise level.
func BenchmarkNoiseResolutionSweep(b *testing.B) {
	sys := core.Default()
	var at5mV float64
	for i := 0; i < b.N; i++ {
		ns := runCampaign[testbench.NoiseSweep](b, sys, testbench.Spec{Campaign: "noisesweep", Seed: 7, Params: testbench.NoiseSweepParams{Sigmas: []float64{0.005}, DevGrid: []float64{0.005, 0.01, 0.02, 0.05}, Trials: 6}})
		at5mV = ns.MinDetectable[0]
	}
	b.ReportMetric(at5mV, "min_detectable@5mV")
}

// Pipeline micro-benchmarks (engineering numbers, not paper artifacts).

func BenchmarkSignatureCapture(b *testing.B) {
	sys := core.Default()
	cut, err := sys.Shifted(0.10)
	if err != nil {
		b.Fatal(err)
	}
	cls, err := sys.Classifier(cut, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := signature.Capture(cls, sys.Period(), sys.Capture); err != nil {
			b.Fatal(err)
		}
	}
}

// EXACT: exact signature extraction of a +10 % f0 CUT — the per-trial
// unit of the Fig. 8 sweep, fault tables and yield — on the zone-LUT
// engine: scan grid through certified interpolation bands, transition
// bisection through ClassifyLUT. BenchmarkExactSignatureScalar times the
// per-point reference the tests check it against (refExact: Classify at
// every scan and bisection point).
func BenchmarkExactSignature(b *testing.B) {
	benchmarkExactSignature(b, func(sys *core.System, c core.CUT) error {
		_, err := sys.ExactSignature(c)
		return err
	})
}

func BenchmarkExactSignatureScalar(b *testing.B) {
	benchmarkExactSignature(b, func(sys *core.System, c core.CUT) error {
		_, err := refExact(sys, c)
		return err
	})
}

func benchmarkExactSignature(b *testing.B, extract func(*core.System, core.CUT) error) {
	sys := core.Default()
	cut, err := sys.Shifted(0.10)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if err := extract(sys, cut); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNDFExact(b *testing.B) {
	sys := core.Default()
	g, err := sys.GoldenSignature()
	if err != nil {
		b.Fatal(err)
	}
	cut, err := sys.Shifted(0.10)
	if err != nil {
		b.Fatal(err)
	}
	d, err := sys.ExactSignature(cut)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ndf.NDF(d, g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBankClassify(b *testing.B) {
	bank := monitor.NewAnalyticTableI()
	src := rng.New(1)
	xs := make([]float64, 1024)
	ys := make([]float64, 1024)
	for i := range xs {
		xs[i] = src.Float64()
		ys[i] = src.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bank.Classify(xs[i%1024], ys[i%1024])
	}
}

// BANK-BATCH: the certified zone LUT classifying the same random points
// in one call (compare per-point cost against BenchmarkBankClassify).
func BenchmarkBankClassifyBatch(b *testing.B) {
	bank := monitor.NewAnalyticTableI()
	src := rng.New(1)
	xs := make([]float64, 1024)
	ys := make([]float64, 1024)
	for i := range xs {
		xs[i] = src.Float64()
		ys[i] = src.Float64()
	}
	codes := make([]monitor.Code, len(xs))
	bank.ClassifyBatch(xs, ys, codes) // build the LUT before timing
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bank.ClassifyBatch(xs, ys, codes)
	}
}

// BANK-BATCH-CURVE: the scan grid of a 2%-deviated CUT. Its trace
// crosses zone boundaries, so it hits the partly proven coarse LUT
// cells far more often than random points do; there the monitors a
// cell leaves open read their staircases, and Bit runs only where a
// staircase leaves the point's fine cell open too.
func BenchmarkBankClassifyBatchCurve(b *testing.B) {
	sys := core.Default()
	cut, err := sys.Shifted(0.02)
	if err != nil {
		b.Fatal(err)
	}
	out, err := cut.Output(sys.Stimulus, biquad.OutputLP)
	if err != nil {
		b.Fatal(err)
	}
	T := sys.Period()
	ts := make([]float64, sys.ScanN+1)
	for i := range ts {
		ts[i] = T * float64(i) / float64(sys.ScanN)
	}
	xs := make([]float64, len(ts))
	ys := make([]float64, len(ts))
	wave.EvalInto(sys.Stimulus, ts, xs)
	wave.EvalInto(out, ts, ys)
	codes := make([]monitor.Code, len(ts))
	sys.Bank.ClassifyBatch(xs, ys, codes) // build the LUT before timing
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Bank.ClassifyBatch(xs, ys, codes)
	}
}

// LUT-BUILD: zone-LUT certification of a fresh Table I bank (one
// 4096-column staircase per monitor and the 128² coarse table derived
// from them), the cold start a fresh System pays on its first batch
// classification.
func BenchmarkZoneLUTBuild(b *testing.B) {
	b.ReportAllocs()
	var frac float64
	for i := 0; i < b.N; i++ {
		_, frac = monitor.NewAnalyticTableI().BatchInfo()
	}
	b.ReportMetric(frac, "certified_frac")
}

// SIG-BATCH: the tick-grid capture (cached stimulus grid, batch output
// evaluation, zone-LUT classification, codes-slice walk) through the
// one-shot CapturedSignature, which builds the CUT's tick plan and a
// fresh trial scratch per call (campaigns reuse one scratch per worker
// inside NoisePlan.AveragedNDF). Compare against
// BenchmarkSignatureCaptureScalar, the per-tick reference.
func BenchmarkSignatureCaptureBatched(b *testing.B) {
	benchmarkSignatureCapture(b, func(sys *core.System, c core.CUT) error {
		_, err := sys.CapturedSignature(c, 0, nil)
		return err
	})
}

// SIG-SCALAR: the per-tick reference capture the tests check the engine
// against (refCapture: Classify at every tick, then the capture walk).
func BenchmarkSignatureCaptureScalar(b *testing.B) {
	benchmarkSignatureCapture(b, func(sys *core.System, c core.CUT) error {
		_, err := refCapture(sys, c, 0, nil, nil)
		return err
	})
}

func benchmarkSignatureCapture(b *testing.B, capture func(*core.System, core.CUT) error) {
	sys := core.Default()
	cut, err := sys.Shifted(0.10)
	if err != nil {
		b.Fatal(err)
	}
	if err := capture(sys, cut); err != nil {
		b.Fatal(err) // also warms the LUT and grid caches
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := capture(sys, cut); err != nil {
			b.Fatal(err)
		}
	}
}

// NDF-AVG-BATCH / NDF-AVG-SCALAR: four noisy periods of the averaged-NDF
// measurement at the paper's σ = 0.005 — the per-trial unit of the noise
// campaigns — through NoisePlan.AveragedNDF with its plan warm
// (certified noise skipping), and through the per-tick reference
// (refAveragedNDF: every tick drawn and classified).
func BenchmarkAveragedNDFBatched(b *testing.B) {
	benchmarkAveragedNDF(b, func(sys *core.System, c core.CUT) (func(*rng.Stream) (float64, error), error) {
		plan, err := sys.NoisePlan(c, 0.005)
		if err != nil {
			return nil, err
		}
		sc := core.NewTrialScratch()
		return func(src *rng.Stream) (float64, error) { return plan.AveragedNDF(src, 4, sc) }, nil
	})
}

func BenchmarkAveragedNDFScalar(b *testing.B) {
	benchmarkAveragedNDF(b, func(sys *core.System, c core.CUT) (func(*rng.Stream) (float64, error), error) {
		g, err := sys.GoldenSignature()
		if err != nil {
			return nil, err
		}
		buf := new(signature.CaptureBuffer)
		return func(src *rng.Stream) (float64, error) { return refAveragedNDF(sys, c, 0.005, src, 4, g, buf) }, nil
	})
}

// benchmarkAveragedNDF times the four-period measurement that setup
// returns, with its per-CUT state and scratch built and warmed outside
// the timing loop.
func benchmarkAveragedNDF(b *testing.B, setup func(*core.System, core.CUT) (func(*rng.Stream) (float64, error), error)) {
	sys := core.Default()
	cut, err := sys.Shifted(0.02)
	if err != nil {
		b.Fatal(err)
	}
	measure, err := setup(sys, cut)
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(3)
	if _, err := measure(src.Split(0)); err != nil {
		b.Fatal(err) // warm the scratch outside the timing loop
	}
	var v float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err = measure(src.Split(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(v, "NDF")
}

// NOISE-PLAN: building the noise plan of a +1 % CUT at σ = 0.005 — the
// clean tick output, its codes and every tick's certified skip
// threshold — which a noise campaign pays once per phase.
func BenchmarkNoisePlanBuild(b *testing.B) {
	sys := core.Default()
	cut, err := sys.Shifted(0.01)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sys.NoisePlan(cut, 0.005); err != nil {
		b.Fatal(err) // warm the LUT, the tick grid and the golden signature
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.NoisePlan(cut, 0.005); err != nil {
			b.Fatal(err)
		}
	}
}

// NOISE-TRIAL: one trial of the noise campaign's detection phase, the
// unit its trials/s counts: a +1 % CUT at σ = 0.005, the plan warm, the
// trial's stream derived as the campaign derives it, five periods.
func BenchmarkNoiseTrial(b *testing.B) {
	sys := core.Default()
	cut, err := sys.Shifted(0.01)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := sys.NoisePlan(cut, 0.005)
	if err != nil {
		b.Fatal(err)
	}
	sc := core.NewTrialScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.AveragedNDF(rng.NewSub(1, 2<<32+uint64(i)), 5, sc); err != nil {
			b.Fatal(err)
		}
	}
}

// polarBlockPairs is the noise plan's block: the pairs one PolarFill
// call draws.
const polarBlockPairs = 256

// POLAR-FILL: one block of polar pairs, the noise plan's unit of
// random draws (a 2000-tick period takes eight), each block drawn on
// from where the last one left the stream.
func BenchmarkPolarFill(b *testing.B) {
	var us, vs, r2s [polarBlockPairs]float64
	src := rng.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.PolarFill(us[:], vs[:], r2s[:])
	}
}

// MON-BIT: one analytic monitor's exact bit (Table I row 3) at random
// plane points: the cost of a monitor a zone-LUT cell leaves open, and
// of every step of a Fig. 4 boundary bisection.
func BenchmarkAnalyticBit(b *testing.B) {
	m := monitor.MustAnalytic(monitor.TableI()[2])
	src := rng.New(1)
	xs := make([]float64, 1024)
	ys := make([]float64, 1024)
	for i := range xs {
		xs[i] = src.Float64()
		ys[i] = src.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Bit(xs[i%1024], ys[i%1024])
	}
}

// SETUP: a fresh System and its golden signature on each backend, the
// one-time cost every campaign job pays before its first trial
// (zone-LUT certification dominates the analytic one).
func BenchmarkSystemGolden(b *testing.B) {
	for _, backend := range core.Backends() {
		b.Run(backend, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys, err := core.SystemForBackend(backend)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sys.GoldenSignature(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSpiceMonitorBit(b *testing.B) {
	sm, err := monitor.NewSpice(monitor.TableI()[2], nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sm.BitErr(0.4, 0.6); err != nil {
			b.Fatal(err)
		}
	}
}

// EXT-YIELD: production yield/escape/overkill simulation.
func BenchmarkExtensionYield(b *testing.B) {
	sys := core.Default()
	dec, err := testbench.CalibrateMultiParam(sys, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	var defect, overkill float64
	for i := 0; i < b.N; i++ {
		y := runCampaign[testbench.Yield](b, sys, testbench.Spec{Campaign: "yield", Seed: 11, Params: testbench.YieldParams{N: 120, ComponentSigma: 0.02, Tol: 0.05, Threshold: &dec.Threshold}})
		defect, overkill = y.DefectLevel(), y.OverkillRate()
	}
	b.ReportMetric(defect, "defect_level")
	b.ReportMetric(overkill, "overkill")
}

// EXT-CORNERS: spurious NDF of a golden CUT at foundry corners.
func BenchmarkExtensionCorners(b *testing.B) {
	sys := core.Default()
	var ss float64
	for i := 0; i < b.N; i++ {
		cd := runCampaign[testbench.CornerDrift](b, sys, testbench.Spec{Campaign: "corners"})
		ss = cd.NDFs[1]
	}
	b.ReportMetric(ss, "NDF@SS")
}

// CUT-SPICE: one full SPICE-backend output materialization (settling +
// capture period) on a fresh CUT, so every call misses the output cache
// and compiles a circuit template of its own — what a one-shot output
// (a golden signature, a corner calibration) costs.
func BenchmarkSpiceCUTOutput(b *testing.B) {
	sys, err := core.DefaultSpice()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		cut, err := sys.Shifted(0.10)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cut.Output(sys.Stimulus, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// CUT-SPICE-TEMPLATE: the same per-trial unit as BenchmarkSpiceCUTOutput
// served through a per-worker circuit template — the campaign path
// (perturb, refresh element values, settle + capture on the compiled
// template). The ratio to BenchmarkSpiceCUTOutput is what keeping the
// template across trials saves; TestSpiceTrialEnginePinnedSpeedup pins
// the template against the rebuild oracle instead.
func BenchmarkSpiceTrialEngine(b *testing.B) {
	sys, err := core.DefaultSpice()
	if err != nil {
		b.Fatal(err)
	}
	var sc biquad.SpiceTrialScratch
	trial := func() error {
		cut, err := sys.Shifted(0.10)
		if err != nil {
			return err
		}
		_, err = cut.(*biquad.SpiceCUT).OutputScratch(sys.Stimulus, 0, &sc)
		return err
	}
	if err := trial(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := trial(); err != nil {
			b.Fatal(err)
		}
	}
}

// YIELD-SPICE-TRIAL: one warm die of the yield campaign on the SPICE
// backend, the unit the benchmark's yield-spice trials_per_s counts:
// the die's component drifts drawn from its stream (derived from the
// seed and the die index as the campaign derives it), the transient on
// the worker's circuit template, the exact scan and refinement, and the
// NDF against the cached golden signature.
func BenchmarkYieldSpiceTrial(b *testing.B) {
	sys, err := core.DefaultSpice()
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sys.GoldenSignature(); err != nil {
		b.Fatal(err)
	}
	eng := campaign.Engine{Seed: 11}
	sc := core.NewTrialScratch()
	die := func(i int) error {
		cut, err := yieldDie(sys, eng, i)
		if err != nil {
			return err
		}
		_, err = sys.NDFOfScratch(cut, sc)
		return err
	}
	if err := die(0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := die(i); err != nil {
			b.Fatal(err)
		}
	}
}

// YIELD-SPICE-PAIR: two warm dies of the yield campaign on the SPICE
// backend through the pair path, the unit a yield-spice worker runs:
// dies i and i+1 drawn as BenchmarkYieldSpiceTrial draws them, their
// transients in lock step on the worker's two template lanes
// (NDFOfPairScratch), then each die's scan, refinement and NDF. Per-op
// figures cover both dies.
func BenchmarkYieldSpicePair(b *testing.B) {
	sys, err := core.DefaultSpice()
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sys.GoldenSignature(); err != nil {
		b.Fatal(err)
	}
	eng := campaign.Engine{Seed: 11}
	sc := core.NewTrialScratch()
	pair := func(i int) error {
		c0, err := yieldDie(sys, eng, 2*i)
		if err != nil {
			return err
		}
		c1, err := yieldDie(sys, eng, 2*i+1)
		if err != nil {
			return err
		}
		_, _, err0, err1 := sys.NDFOfPairScratch(c0, c1, sc)
		return errors.Join(err0, err1)
	}
	if err := pair(0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pair(i); err != nil {
			b.Fatal(err)
		}
	}
}

// yieldDie is die i of a 2 % yield campaign on sys: its component
// drifts drawn from the die's stream, as the campaign draws them.
func yieldDie(sys *core.System, eng campaign.Engine, i int) (core.CUT, error) {
	s := eng.Stream(i)
	return sys.Deviated(core.Deviation{
		RDrift:  s.Gauss(0, 0.02),
		RQDrift: s.Gauss(0, 0.02),
		RGDrift: s.Gauss(0, 0.02),
		CDrift:  s.Gauss(0, 0.02),
	})
}

// CAMPAIGN-SPICE: the reduced fault-table campaign on the SPICE backend
// (the cmd/mcmon -backend=spice path).
func BenchmarkFaultTableSpice(b *testing.B) {
	sys, err := core.DefaultSpice()
	if err != nil {
		b.Fatal(err)
	}
	faults := []biquad.Fault{
		{Kind: biquad.FaultParametric, Target: biquad.TargetR, Frac: 0.10},
		{Kind: biquad.FaultOpen, Target: biquad.TargetRQ},
		{Kind: biquad.FaultShort, Target: biquad.TargetC},
	}
	dec := ndf.Decision{Threshold: 0.02}
	var coverage float64
	for i := 0; i < b.N; i++ {
		tab := runCampaign[testbench.FaultTable](b, sys, testbench.Spec{Campaign: "faults", Params: testbench.FaultsParams{Threshold: &dec.Threshold, Faults: faults}})
		coverage = tab.Coverage()
	}
	b.ReportMetric(coverage, "coverage")
}

// EXT-BIST: stuck-at monitor faults detected by the golden comparison.
func BenchmarkExtensionSelfTest(b *testing.B) {
	sys := core.Default()
	dec, err := sys.CalibrateFromToleranceCtx(context.Background(), 0.05, 9, campaign.Engine{})
	if err != nil {
		b.Fatal(err)
	}
	var cov float64
	for i := 0; i < b.N; i++ {
		st := runCampaign[testbench.SelfTest](b, sys, testbench.Spec{Campaign: "selftest", Params: testbench.SelfTestParams{Threshold: &dec.Threshold}})
		cov = st.Coverage()
	}
	b.ReportMetric(cov, "stuckat_coverage")
}

// API: registry-dispatch overhead — a full Run (spec decode, registry
// lookup, option resolution, envelope assembly) around the cheapest
// campaign, so the number is dominated by the dispatch machinery the PR 4
// redesign put in front of every campaign, not by the campaign itself.
func BenchmarkRegistryDispatch(b *testing.B) {
	ctx := context.Background()
	var zones int
	for i := 0; i < b.N; i++ {
		res, err := testbench.Run(ctx, testbench.Spec{Campaign: "table1"})
		if err != nil {
			b.Fatal(err)
		}
		zones = len(res.Payload.(*testbench.Table1).Configs)
	}
	b.ReportMetric(float64(zones), "configs")
}

// API: the same dispatch from raw JSON — the mcserved HTTP body path,
// including the strict params decode.
func BenchmarkRegistryDispatchJSON(b *testing.B) {
	ctx := context.Background()
	body := []byte(`{"campaign":"fig1","workers":1,"params":{"shift":0.1,"points":16}}`)
	for i := 0; i < b.N; i++ {
		var spec testbench.Spec
		if err := json.Unmarshal(body, &spec); err != nil {
			b.Fatal(err)
		}
		if _, err := testbench.Run(ctx, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// ENGINE-REDUCE: the campaign engine's per-trial overhead on a million
// trivial trials through the streaming reduction; the allocation column
// is the O(workers + chunk) memory story.
func BenchmarkCampaignReduce1M(b *testing.B) {
	ctx := context.Background()
	red := campaign.Reducer[float64, float64]{
		Fold:  func(a float64, _ int, v float64) float64 { return a + v },
		Merge: func(a, c float64) float64 { return a + c },
	}
	b.ReportAllocs()
	var sum float64
	for i := 0; i < b.N; i++ {
		var err error
		sum, err = campaign.Reduce(ctx, campaign.Engine{Workers: 1}, 1_000_000, red,
			func(i int) (float64, error) { return float64(i & 1), nil })
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(sum, "sum")
}

// ENGINE-REDUCE-1W: a serve or fabric job's reduction shape — 256
// trivial trials in chunks of 8 on one worker (cmd/mcbench runs every
// serve-mixed and fabric-sharded job at Workers: 1). It times the
// engine's serial workers == 1 loop in campaign.ReduceSpanScratch,
// which folds the chunks in order on the caller's goroutine; the
// feeder/worker/merger pipeline it stands in for took more than ten
// times as long per run and three times the bytes.
func BenchmarkReduceOneWorker(b *testing.B) {
	ctx := context.Background()
	red := campaign.Reducer[float64, float64]{
		Fold:  func(a float64, _ int, v float64) float64 { return a + v },
		Merge: func(a, c float64) float64 { return a + c },
	}
	b.ReportAllocs()
	var sum float64
	for i := 0; i < b.N; i++ {
		var err error
		sum, err = campaign.Reduce(ctx, campaign.Engine{Workers: 1, Chunk: 8}, 256, red,
			func(i int) (float64, error) { return float64(i & 1), nil })
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(sum, "sum")
}

// NOISE-CALIB-1M: the null calibration at a million synthetic trials —
// one max-reduction over the streaming engine. The allocation column is
// the O(workers + chunk) story: the accumulator is one float64 per
// chunk, so total allocation stays flat however many trials the spec
// names, pinned by testbench.TestNoiseCalibrationFlatMemory.
func BenchmarkNoiseNullCalibration(b *testing.B) {
	ctx := context.Background()
	trial := func(i int, _ *core.TrialScratch) (float64, error) {
		return 0.01 + float64(i%9973)*1.3e-5, nil
	}
	b.ReportAllocs()
	var thr float64
	for i := 0; i < b.N; i++ {
		dec, err := testbench.CalibrateNullThreshold(ctx, campaign.Engine{Workers: 4, Seed: 2}, 1_000_000, 0, trial)
		if err != nil {
			b.Fatal(err)
		}
		thr = dec.Threshold
	}
	b.ReportMetric(thr, "threshold")
}

// ENGINE-CKPT:the durable fabric's checkpoint tax on the streaming
// reduction — a million trivial trials through campaign.ReduceSpanScratch with
// no sink, with the default cadence (one serialized accumulator every
// 65536 trials, the fabric's job-log append), and with an aggressively
// short cadence. The off-vs-default gap is pinned < 5% by
// TestCheckpointOverheadPinned.
func BenchmarkCheckpointOverhead(b *testing.B) {
	for _, bc := range []struct {
		name    string
		cadence int
		sink    bool
	}{
		{name: "off", cadence: 0, sink: false},
		{name: "default", cadence: campaign.DefaultCheckpoint, sink: true},
		{name: "cadence4096", cadence: 4096, sink: true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			ctx := context.Background()
			e := campaign.Engine{Workers: 1, Checkpoint: bc.cadence}
			span := campaign.Span{Lo: 0, Hi: 1_000_000}
			var ckpt campaign.CheckpointFunc[float64]
			var blobs, bytes int
			if bc.sink {
				ckpt = func(acc float64, through int) error {
					// The per-checkpoint work a fabric worker pays: encode
					// the accumulator and hand the blob to the store layer.
					var buf [16]byte
					binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(acc))
					binary.LittleEndian.PutUint64(buf[8:], uint64(through))
					blobs++
					bytes += len(buf)
					return nil
				}
			}
			b.ReportAllocs()
			var sum float64
			for i := 0; i < b.N; i++ {
				var err error
				sum, err = campaign.ReduceSpanScratch(ctx, e, span, nil, ckpt, sumRed(), noScratch, trivialTrial, nil)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(sum, "sum")
			if b.N > 0 {
				b.ReportMetric(float64(blobs)/float64(b.N), "ckpts/op")
			}
			_ = bytes
		})
	}
}

// EXT-YIELD-STREAM: the streamed production-yield campaign at 10k dies
// on a reduced scan resolution — the registry + reduction path of a
// million-die run, sized for the benchmark budget. Allocations stay
// O(workers + chunk) however many dies the spec names.
func BenchmarkYieldStreaming10k(b *testing.B) {
	sys := core.Default()
	sys.ScanN = 64
	thr := 0.03
	ctx := context.Background()
	var rate float64
	for i := 0; i < b.N; i++ {
		res, err := testbench.Run(ctx, testbench.Spec{
			Campaign: "yield",
			Seed:     1,
			Params:   testbench.YieldParams{N: 10_000, ComponentSigma: 0.02, Tol: 0.05, Threshold: &thr},
		}, testbench.WithSystem(sys))
		if err != nil {
			b.Fatal(err)
		}
		rate = res.Payload.(*testbench.Yield).YieldRate()
	}
	b.ReportMetric(rate, "yield_rate")
}
