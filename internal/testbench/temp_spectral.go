package testbench

import (
	"context"
	"fmt"
	"math/cmplx"
	"strings"

	"repro/internal/biquad"
	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/monitor"
	"repro/internal/ndf"
	"repro/internal/stat"
	"repro/internal/wave"
)

// TempDrift quantifies a deployment hazard the paper leaves implicit:
// the golden signature is characterized at one temperature, but the
// monitor's boundaries move with the junction temperature (V_TH and
// mobility tempcos), so a perfectly good CUT read out at a different
// temperature shows a spurious NDF. The experiment measures that false
// discrepancy as a function of temperature — the calibration budget a
// deployment must engineer around (re-characterize per temperature, or
// back off the threshold).
type TempDrift struct {
	TempsK []float64
	NDFs   []float64 // NDF of a golden CUT read by a bank at TempsK[i]
}

// runTempDrift evaluates a golden CUT against the 300 K golden signature
// with the monitor bank operated at each temperature (registry campaign
// "temp").
func runTempDrift(ctx context.Context, sys *core.System, tempsK []float64) (*TempDrift, error) {
	golden, err := sys.GoldenSignature()
	if err != nil {
		return nil, err
	}
	out := &TempDrift{TempsK: tempsK}
	for _, tk := range tempsK {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		bank, err := bankAtTemperature(tk)
		if err != nil {
			return nil, err
		}
		hotSys, err := core.NewSystem(sys.Stimulus, sys.CUT, bank, sys.Capture)
		if err != nil {
			return nil, err
		}
		hotSys.Observe = sys.Observe
		obs, err := hotSys.ExactSignature(sys.CUT)
		if err != nil {
			return nil, err
		}
		v, err := ndf.NDF(obs, golden)
		if err != nil {
			return nil, err
		}
		out.NDFs = append(out.NDFs, v)
	}
	return out, nil
}

// bankAtTemperature rebuilds the Table I bank with every input device's
// parameters shifted to the given junction temperature.
func bankAtTemperature(tempK float64) (*monitor.Bank, error) {
	cfgs := monitor.TableI()
	ms := make([]monitor.Monitor, len(cfgs))
	for i, cfg := range cfgs {
		a, err := monitor.NewAnalytic(cfg)
		if err != nil {
			return nil, err
		}
		devs := a.Devices()
		for j := range devs {
			devs[j].P = devs[j].P.AtTemperature(tempK)
		}
		ms[i] = a.WithDevices(devs)
	}
	return monitor.NewBank(ms...), nil
}

// Render prints the drift table.
func (td *TempDrift) Render() string {
	var b strings.Builder
	b.WriteString("monitor temperature drift (golden CUT, golden characterized at 300 K)\n")
	b.WriteString("T(K)    spurious NDF\n")
	for i := range td.TempsK {
		fmt.Fprintf(&b, "%5.0f   %.4f\n", td.TempsK[i], td.NDFs[i])
	}
	return b.String()
}

// AblSpectral compares two alternate-test feature families for f0
// regression: the signature dwell-time features (what the digital
// monitor provides for free) against classic spectral features (tone
// amplitudes measured with Goertzel on the sampled analog output, which
// needs an ADC). Both are trained and evaluated on the same deviation
// grids.
type AblSpectral struct {
	DwellRMSE    float64
	SpectralRMSE float64
}

// runAblSpectral runs both regressions (registry campaign "spectral").
func runAblSpectral(ctx context.Context, sys *core.System, trainDevs, testDevs []float64) (*AblSpectral, error) {
	dw, err := runAblRegression(ctx, sys, trainDevs, testDevs)
	if err != nil {
		return nil, err
	}
	// Spectral features: amplitudes of the three stimulus tones in the
	// CUT output, sampled over one period.
	feat := func(dev float64) ([]float64, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		f, err := biquad.New(sys.Golden().WithF0Shift(dev))
		if err != nil {
			return nil, err
		}
		out := f.SteadyState(sys.Stimulus)
		rec := wave.SamplePeriods(out, 1, 2000)
		v := []float64{1}
		for _, tone := range sys.Stimulus.Tones {
			g := dsp.Goertzel(rec.V, rec.Fs, tone.Freq)
			v = append(v, cmplx.Abs(g))
		}
		return v, nil
	}
	var X [][]float64
	for _, d := range trainDevs {
		x, err := feat(d)
		if err != nil {
			return nil, err
		}
		X = append(X, x)
	}
	beta, err := stat.MultiFit(X, trainDevs)
	if err != nil {
		return nil, err
	}
	var pred, truth []float64
	for _, d := range testDevs {
		x, err := feat(d)
		if err != nil {
			return nil, err
		}
		s := 0.0
		for i := range beta {
			s += beta[i] * x[i]
		}
		pred = append(pred, s)
		truth = append(truth, d)
	}
	return &AblSpectral{DwellRMSE: dw.TestRMSE, SpectralRMSE: stat.RMSE(pred, truth)}, nil
}

// Render prints the comparison.
func (a *AblSpectral) Render() string {
	return fmt.Sprintf("alternate-test features: dwell RMSE %.5f vs spectral (Goertzel) RMSE %.5f\n",
		a.DwellRMSE, a.SpectralRMSE)
}
