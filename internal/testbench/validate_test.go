package testbench

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/biquad"
)

// TestValidateMatchesRunner holds Validate to its contract, "a bad spec
// never takes a job id", at every campaign's knob boundaries: each
// boundary spec Validate accepts runs at test size, and each one it
// rejects fails with an error that names the field at fault. Each
// rejected case is a spec whose runner fails (a zero f0 or Q, a
// one-point grid, an empty list, a component drifted to zero), runs an
// unknown fault as no fault, substitutes another value than the
// spec records (fig4, fig4spice, fig8 and stimopt sizes), or computes
// with a non-finite or negative spread, tolerance or threshold.
func TestValidateMatchesRunner(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	thr := func(v float64) *float64 { return &v }
	accepted := []struct {
		campaign, backend string
		params            any
	}{
		{"table1", "", Table1Params{}},
		{"corners", "", CornersParams{}},
		{"fig1", "", Fig1Params{Shift: -0.99, Points: 2}},
		{"fig4", "", Fig4Params{Points: 2}},
		{"fig4spice", "", Fig4SpiceParams{Cols: 2}},
		{"fig4mc", "", Fig4MCParams{Monitor: 0, Dies: 1, Cols: 2}},
		{"fig4mc", "", Fig4MCParams{Monitor: 5, Dies: 1, Cols: 2}},
		{"fig4mc", "", Fig4MCParams{Monitor: 1, Dies: 1, Cols: 2}},
		{"fig4mc", "", Fig4MCParams{Monitor: 1, Dies: 4, Cols: 3}},
		{"fig6", "", Fig6Params{Shift: -0.99, Grid: 2}},
		{"fig7", "", Fig7Params{Shift: -0.99, Points: 1}},
		{"fig7", "spice", Fig7Params{Shift: -0.99, Points: 1}},
		{"fig8", "", Fig8Params{MaxDev: 0.99, Points: 2, Tol: 0.05}},
		{"fig8", "", Fig8Params{MaxDev: 0, Points: 2, Tol: 1e-9}},
		{"noise", "", NoiseParams{Sigma: 0, Devs: []float64{-0.99}, NullTrials: 1, Trials: 1}},
		{"noisesweep", "", NoiseSweepParams{Sigmas: []float64{0}, DevGrid: []float64{0.5}, Trials: 1}},
		{"faults", "", FaultsParams{Tol: 0.499, Faults: DefaultFaultSet()[:1]}},
		{"faults", "", FaultsParams{Threshold: thr(0), Tol: 0, Faults: DefaultFaultSet()[:1]}},
		{"faults", "", FaultsParams{Threshold: thr(0.1), Faults: []biquad.Fault{{Kind: biquad.FaultParametric, Target: biquad.TargetC, Frac: -0.99}}}},
		{"selftest", "", SelfTestParams{Tol: 0.499}},
		{"selftest", "", SelfTestParams{Threshold: thr(0)}},
		{"yield", "", YieldParams{N: 1, ComponentSigma: 0, Tol: 0.499}},
		{"yield", "spice", YieldParams{N: 1, ComponentSigma: 0.02, Tol: 0.499}},
		{"yield", "", YieldParams{N: 1, ComponentSigma: 0.02, Tol: 0}},
		{"yield", "", YieldParams{N: 1, ComponentSigma: MaxComponentSigma, Tol: 0.05}},
		{"yield", "spice", YieldParams{N: 1, ComponentSigma: MaxComponentSigma, Tol: 0.05}},
		{"temp", "", TempParams{TempsK: []float64{1e-9}}},
		{"spectral", "", SpectralParams{TrainDevs: []float64{-0.99}, TestDevs: []float64{-0.99}}},
		{"regress", "", RegressParams{TrainDevs: []float64{-0.99}, TestDevs: []float64{-0.99}}},
		{"metric", "", MetricParams{Devs: []float64{-0.99}}},
		{"counter", "", CounterParams{Shift: -0.99, Bits: []int{1}, Clocks: []float64{MinClockHz}}},
		{"linear", "", LinearParams{Devs: []float64{-0.99}}},
		{"q", "", QParams{Devs: []float64{-0.99}}},
		{"q", "spice", QParams{Devs: []float64{-0.99}}},
		{"stimopt", "", StimOptParams{Shift: -0.99, Grid: 2}},
		{"backends", "", BackendsParams{Shifts: []float64{-0.99}}},
	}
	covered := map[string]bool{}
	for _, c := range accepted {
		covered[c.campaign] = true
		spec := Spec{Campaign: c.campaign, Backend: c.backend, Params: c.params}
		if err := Validate(spec); err != nil {
			t.Fatalf("%s %s %+v: Validate = %v", c.campaign, c.backend, c.params, err)
		}
		if _, err := Run(context.Background(), spec); err != nil {
			t.Fatalf("%s %s %+v passed Validate, then failed: %v", c.campaign, c.backend, c.params, err)
		}
	}
	for _, name := range Names() {
		if !covered[name] {
			t.Errorf("campaign %s has no boundary spec", name)
		}
	}
	rejected := []struct {
		campaign, field string
		params          any
	}{
		{"fig1", "shift", Fig1Params{Shift: -1, Points: 2}},
		{"fig1", "shift", Fig1Params{Shift: nan, Points: 2}},
		{"fig1", "points", Fig1Params{Shift: 0.1, Points: 1}},
		{"fig4", "points", Fig4Params{Points: 1}},
		{"fig4spice", "cols", Fig4SpiceParams{Cols: 1}},
		{"fig4mc", "monitor", Fig4MCParams{Monitor: 6, Dies: 1, Cols: 2}},
		{"fig4mc", "monitor", Fig4MCParams{Monitor: -1, Dies: 1, Cols: 2}},
		{"fig4mc", "cols", Fig4MCParams{Monitor: 2, Dies: 1, Cols: 1}},
		{"fig6", "grid", Fig6Params{Shift: 0.1, Grid: 1}},
		{"fig6", "shift", Fig6Params{Shift: -1, Grid: 2}},
		{"fig7", "shift", Fig7Params{Shift: -1.5, Points: 1}},
		{"fig7", "shift", Fig7Params{Shift: inf, Points: 1}},
		{"fig8", "max_dev", Fig8Params{MaxDev: 1, Points: 2, Tol: 0.05}},
		{"fig8", "max_dev", Fig8Params{MaxDev: nan, Points: 2, Tol: 0.05}},
		{"fig8", "points", Fig8Params{MaxDev: 0.2, Points: 1, Tol: 0.05}},
		{"fig8", "tol", Fig8Params{MaxDev: 0.2, Points: 2, Tol: 0}},
		{"noise", "devs", NoiseParams{Sigma: 0.005, Devs: []float64{0.01, -1}, NullTrials: 1, Trials: 1}},
		{"noise", "sigma", NoiseParams{Sigma: nan, NullTrials: 1, Trials: 1}},
		{"noisesweep", "sigmas", NoiseSweepParams{Sigmas: []float64{inf}, DevGrid: []float64{0.5}, Trials: 1}},
		{"faults", "tol", FaultsParams{Tol: 0}},
		{"faults", "tol", FaultsParams{Tol: -1}},
		{"faults", "tol", FaultsParams{Tol: 0.5}},
		{"faults", "threshold", FaultsParams{Threshold: thr(nan)}},
		{"faults", "faults", FaultsParams{Tol: 0.05, Faults: []biquad.Fault{{Kind: biquad.FaultParametric, Target: biquad.TargetR, Frac: -1}}}},
		{"faults", "faults", FaultsParams{Tol: 0.05, Faults: []biquad.Fault{{Kind: biquad.FaultShort + 1, Target: biquad.TargetR}}}},
		{"faults", "faults", FaultsParams{Tol: 0.05, Faults: []biquad.Fault{{Kind: biquad.FaultOpen, Target: biquad.TargetC + 1}}}},
		{"selftest", "tol", SelfTestParams{Tol: 0}},
		{"selftest", "tol", SelfTestParams{Tol: -1}},
		{"selftest", "tol", SelfTestParams{Tol: 0.5}},
		{"yield", "tol", YieldParams{N: 1, ComponentSigma: 0.02, Tol: 0.5}},
		{"yield", "tol", YieldParams{N: 1, ComponentSigma: 0.02, Tol: -0.05}},
		{"yield", "component_sigma", YieldParams{N: 1, ComponentSigma: -0.02, Tol: 0.05}},
		{"yield", "component_sigma", YieldParams{N: 1, ComponentSigma: 1e300, Tol: 0.05}},
		{"yield", "component_sigma", YieldParams{N: 1, ComponentSigma: math.Nextafter(MaxComponentSigma, 2), Tol: 0.05}},
		{"yield", "threshold", YieldParams{N: 1, ComponentSigma: 0.02, Tol: 0.05, Threshold: thr(inf)}},
		{"spectral", "train_devs", SpectralParams{TestDevs: []float64{0.1}}},
		{"spectral", "test_devs", SpectralParams{TrainDevs: []float64{0.1}}},
		{"regress", "train_devs", RegressParams{TestDevs: []float64{0.1}}},
		{"regress", "train_devs", RegressParams{TrainDevs: []float64{-1}, TestDevs: []float64{0.1}}},
		{"regress", "test_devs", RegressParams{TrainDevs: []float64{0.1}, TestDevs: []float64{}}},
		{"metric", "devs", MetricParams{Devs: []float64{-1}}},
		{"counter", "shift", CounterParams{Shift: -1, Bits: []int{8}, Clocks: []float64{1e6}}},
		{"counter", "clocks", CounterParams{Shift: 0.1, Bits: []int{8}, Clocks: []float64{MinClockHz / 2}}},
		{"linear", "devs", LinearParams{Devs: []float64{-1}}},
		{"q", "devs", QParams{Devs: []float64{-1}}},
		{"stimopt", "shift", StimOptParams{Shift: -1, Grid: 2}},
		{"stimopt", "grid", StimOptParams{Shift: 0.05, Grid: 1}},
		{"backends", "shifts", BackendsParams{Shifts: []float64{0.05, -1}}},
		{"temp", "temps_k", TempParams{TempsK: []float64{0}}},
	}
	for _, c := range rejected {
		err := Validate(Spec{Campaign: c.campaign, Params: c.params})
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Fatalf("%s %+v: Validate = %v, want an error naming %q", c.campaign, c.params, err, c.field)
		}
	}
}

// TestFig4MCEmptyEnvelopeRuns: a fig4mc grid on which no column is
// crossed by the nominal boundary and by 3/4 of the dies validates and
// runs to an envelope of no columns, which renders, reports 0 for the
// nominal-inside fraction and survives the result's JSON round trip.
// Both specs used to validate and then fail the job.
func TestFig4MCEmptyEnvelopeRuns(t *testing.T) {
	for _, p := range []Fig4MCParams{{Monitor: 1, Dies: 1, Cols: 2}, {Monitor: 1, Dies: 4, Cols: 3}} {
		spec := Spec{Campaign: "fig4mc", Params: p}
		if err := Validate(spec); err != nil {
			t.Fatalf("%+v: Validate = %v", p, err)
		}
		res, err := Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		env := res.Payload.(*Fig4MC)
		if len(env.Xs) != 0 || len(env.Cols) != 0 || env.NominalInsideEnvelope() != 0 {
			t.Fatalf("%+v: envelope %+v, nominal inside %v; want no columns and 0", p, env, env.NominalInsideEnvelope())
		}
		if !strings.Contains(env.Render(), "no grid column") {
			t.Fatalf("%+v: render %q does not say that no column qualified", p, env.Render())
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeResult(data)
		if err != nil {
			t.Fatal(err)
		}
		if back.Payload.(*Fig4MC).Render() != env.Render() {
			t.Fatalf("%+v: round trip renders %q, want %q", p, back.Payload.(*Fig4MC).Render(), env.Render())
		}
	}
}
