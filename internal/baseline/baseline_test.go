package baseline

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/signature"
)

func TestLinearMonitorBitConvention(t *testing.T) {
	cfg := monitor.TableI()[5]
	lm, err := NewLinearMonitor(Line{Nx: -1, Ny: 1, C: 0}, cfg) // y = x
	if err != nil {
		t.Fatal(err)
	}
	if lm.Bit(cfg.RefX, cfg.RefY) != 0 {
		t.Fatal("reference point must code 0")
	}
	if lm.Bit(0.1, 0.9) == lm.Bit(0.9, 0.1) {
		t.Fatal("line must separate the two half-planes")
	}
}

func TestLinearMonitorRejectsDegenerate(t *testing.T) {
	if _, err := NewLinearMonitor(Line{}, monitor.TableI()[0]); err == nil {
		t.Fatal("degenerate line accepted")
	}
}

func TestFitLineToDiagonal(t *testing.T) {
	a := monitor.MustAnalytic(monitor.TableI()[5])
	line, err := FitLineToBoundary(a, 60)
	if err != nil {
		t.Fatal(err)
	}
	// The diagonal boundary y = x has normal ∝ (1, -1) and c ≈ 0; check
	// via evaluation instead of normal orientation.
	for _, p := range []struct{ x, y float64 }{{0.5, 0.5}, {0.8, 0.8}} {
		if d := math.Abs(line.Eval(p.x, p.y)); d > 0.05 {
			t.Fatalf("fitted line misses diagonal at (%v,%v): %v", p.x, p.y, d)
		}
	}
	if d := math.Abs(line.Eval(0.9, 0.1)); d < 0.2 {
		t.Fatal("fitted line should separate off-diagonal points")
	}
}

func TestFitLineToArcHasResidual(t *testing.T) {
	// Curve 3 is genuinely nonlinear: a straight fit must leave visible
	// residual somewhere on the arc (that residual is what the paper's
	// nonlinear monitor removes).
	a := monitor.MustAnalytic(monitor.TableI()[2])
	line, err := FitLineToBoundary(a, 80)
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for _, p := range a.TraceBoundary(0, 1, 80) {
		if d := math.Abs(line.Eval(p.X, p.Y)); d > worst {
			worst = d
		}
	}
	if worst < 1e-3 {
		t.Fatalf("arc fit residual %v suspiciously small — boundary not curved?", worst)
	}
}

func TestLinearBankEndToEnd(t *testing.T) {
	lin, err := NewLinearTableI()
	if err != nil {
		t.Fatal(err)
	}
	if lin.Size() != 6 {
		t.Fatalf("linear bank size = %d", lin.Size())
	}
	s := core.Default()
	sys, err := core.NewSystem(s.Stimulus, s.CUT, lin, s.Capture)
	if err != nil {
		t.Fatal(err)
	}
	v10, err := sys.NDFOfShift(0.10)
	if err != nil {
		t.Fatal(err)
	}
	v5, err := sys.NDFOfShift(0.05)
	if err != nil {
		t.Fatal(err)
	}
	// The straight-line baseline remains a working test method: NDF
	// must still grow with deviation (refs [12][13] demonstrated this).
	if !(v10 > v5 && v5 > 0) {
		t.Fatalf("linear zoning lost sensitivity: NDF(5%%)=%v NDF(10%%)=%v", v5, v10)
	}
}

func TestLinearAreaConstant(t *testing.T) {
	if LinearMonitorAreaUm2 <= monitor.RefCoreAreaUm2 {
		t.Fatal("linear monitor must cost more than the nonlinear core")
	}
}

func trainSet(t *testing.T, devs []float64) []*signature.Signature {
	t.Helper()
	s := core.Default()
	sigs := make([]*signature.Signature, len(devs))
	for i, d := range devs {
		cut, err := s.Shifted(d)
		if err != nil {
			t.Fatal(err)
		}
		sig, err := s.ExactSignature(cut)
		if err != nil {
			t.Fatal(err)
		}
		sigs[i] = sig
	}
	return sigs
}

func TestAlternateTestRegression(t *testing.T) {
	train := []float64{-0.20, -0.15, -0.10, -0.06, -0.03, 0, 0.03, 0.06, 0.10, 0.15, 0.20}
	sigs := trainSet(t, train)
	reg, err := TrainRegressor(sigs, train)
	if err != nil {
		t.Fatal(err)
	}
	// In-sample fit must be decent.
	rmseIn, err := EvaluateRegressor(reg, sigs, train)
	if err != nil {
		t.Fatal(err)
	}
	if rmseIn > 0.05 {
		t.Fatalf("in-sample RMSE = %v, regression useless", rmseIn)
	}
	// Held-out points: predictions correlate with truth.
	test := []float64{-0.12, -0.04, 0.07, 0.12}
	testSigs := trainSet(t, test)
	rmseOut, err := EvaluateRegressor(reg, testSigs, test)
	if err != nil {
		t.Fatal(err)
	}
	if rmseOut > 0.10 {
		t.Fatalf("held-out RMSE = %v, want < 0.10 (10%% of range)", rmseOut)
	}
}

func TestRegressorValidation(t *testing.T) {
	if _, err := TrainRegressor(nil, nil); err == nil {
		t.Fatal("empty training set accepted")
	}
	s := core.Default()
	sig, _ := s.ExactSignature(s.CUT)
	if _, err := TrainRegressor([]*signature.Signature{sig}, []float64{0, 1}); err == nil {
		t.Fatal("mismatched labels accepted")
	}
	reg, err := TrainRegressor(trainSet(t, []float64{-0.1, 0, 0.1}), []float64{-0.1, 0, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EvaluateRegressor(reg, nil, nil); err == nil {
		t.Fatal("empty eval set accepted")
	}
}

func TestFeaturesVector(t *testing.T) {
	sig := &signature.Signature{Period: 1, Entries: []signature.Entry{
		{Code: 2, Dur: 0.25}, {Code: 5, Dur: 0.75},
	}}
	f := NewFeatures(sig)
	v := f.Vector(sig)
	if len(v) != 3 || v[0] != 1 {
		t.Fatalf("vector = %v", v)
	}
	if math.Abs(v[1]-0.25) > 1e-12 || math.Abs(v[2]-0.75) > 1e-12 {
		t.Fatalf("dwell fractions = %v", v[1:])
	}
	// Unknown codes are ignored.
	other := &signature.Signature{Period: 1, Entries: []signature.Entry{{Code: 63, Dur: 1}}}
	vo := f.Vector(other)
	if vo[1] != 0 || vo[2] != 0 {
		t.Fatalf("unknown code leaked into features: %v", vo)
	}
}

func TestLinearVsNonlinearSensitivity(t *testing.T) {
	// The ablation claim: nonlinear zoning with the same number of
	// monitors gives at least comparable NDF sensitivity at small
	// deviations. (Both remain usable; the nonlinear monitor's win in
	// the paper is hardware cost, checked by TestLinearAreaConstant.)
	s := core.Default()
	lin, err := NewLinearTableI()
	if err != nil {
		t.Fatal(err)
	}
	linSys, err := core.NewSystem(s.Stimulus, s.CUT, lin, s.Capture)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := s.NDFOfShift(0.03)
	if err != nil {
		t.Fatal(err)
	}
	ll, err := linSys.NDFOfShift(0.03)
	if err != nil {
		t.Fatal(err)
	}
	if nl <= 0 || ll <= 0 {
		t.Fatalf("sensitivity vanished: nonlinear %v, linear %v", nl, ll)
	}
}

func TestLinearMonitorAccessors(t *testing.T) {
	cfg := monitor.TableI()[5]
	lm, err := NewLinearMonitor(Line{Nx: -1, Ny: 1, C: 0}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if lm.Config().Name != cfg.Name {
		t.Fatal("Config accessor wrong")
	}
}
