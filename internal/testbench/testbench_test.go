package testbench

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
)

func sys() *core.System { return core.Default() }

// threshold is a decision threshold in the optional-pointer form the
// campaign params carry.
func threshold(v float64) *float64 { return &v }

func TestFig1(t *testing.T) {
	f, err := runAs[Fig1](context.Background(), Spec{Campaign: "fig1", Params: Fig1Params{Shift: 0.10, Points: 500}}, WithSystem(sys()))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Golden) != 500 || len(f.Defective) != 500 {
		t.Fatal("sample counts wrong")
	}
	// Both traces inside the unit square; visibly different.
	worst := 0.0
	for i := range f.Golden {
		for _, p := range []struct{ x, y float64 }{
			{f.Golden[i].X, f.Golden[i].Y}, {f.Defective[i].X, f.Defective[i].Y},
		} {
			if p.x < 0 || p.x > 1 || p.y < 0 || p.y > 1 {
				t.Fatalf("trace escapes unit square: %+v", p)
			}
		}
		d := math.Hypot(f.Golden[i].X-f.Defective[i].X, f.Golden[i].Y-f.Defective[i].Y)
		if d > worst {
			worst = d
		}
	}
	if worst < 0.01 {
		t.Fatal("defective trace indistinguishable from golden")
	}
	csv := f.CSV()
	if !strings.HasPrefix(csv, "i,golden_x") || strings.Count(csv, "\n") != 501 {
		t.Fatal("CSV malformed")
	}
}

func TestTable1Render(t *testing.T) {
	tab, err := runAs[Table1](context.Background(), Spec{Campaign: "table1"})
	if err != nil {
		t.Fatal(err)
	}
	s := tab.Render()
	for _, want := range []string{"3000", "1800", "600", "X axis", "Y axis", "0.55", "L = 180 nm"} {
		if !strings.Contains(s, want) {
			t.Fatalf("table missing %q:\n%s", want, s)
		}
	}
	if len(strings.Split(strings.TrimSpace(s), "\n")) != 8 { // header + 6 rows + footer
		t.Fatalf("unexpected table shape:\n%s", s)
	}
}

func TestFig4(t *testing.T) {
	f, err := runAs[Fig4](context.Background(), Spec{Campaign: "fig4", Params: Fig4Params{Points: 41}})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Curves) != 6 {
		t.Fatalf("curves = %d, want 6", len(f.Curves))
	}
	for i, pts := range f.Curves {
		if len(pts) < 10 {
			t.Fatalf("curve %d has only %d points", i+1, len(pts))
		}
		for _, p := range pts {
			if p.X < -1e-9 || p.X > 1+1e-9 || p.Y < -1e-9 || p.Y > 1+1e-9 {
				t.Fatalf("curve %d point outside square: %+v", i+1, p)
			}
		}
	}
	if !strings.HasPrefix(f.CSV(), "curve,x,y\n") {
		t.Fatal("CSV header wrong")
	}
}

func TestFig4MCEnvelope(t *testing.T) {
	f, err := runAs[Fig4MC](context.Background(), Spec{Campaign: "fig4mc", Seed: 7, Params: Fig4MCParams{Monitor: 2, Dies: 60, Cols: 25}})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Xs) < 5 {
		t.Fatalf("envelope covers only %d columns", len(f.Xs))
	}
	for i := range f.Xs {
		if f.P2_5[i] > f.P97_5[i] {
			t.Fatalf("envelope inverted at column %d", i)
		}
	}
	// The paper's claim: nominal (and measured) boundaries lie in the MC
	// band.
	if frac := f.NominalInsideEnvelope(); frac < 0.9 {
		t.Fatalf("nominal inside envelope only %.0f%% of columns", frac*100)
	}
	if !strings.Contains(f.Render(), "Monte Carlo") {
		t.Fatal("render missing title")
	}
	if !strings.HasPrefix(f.CSV(), "x,p2_5") {
		t.Fatal("CSV header wrong")
	}
	if _, err := runAs[Fig4MC](context.Background(), Spec{Campaign: "fig4mc", Seed: 1, Params: Fig4MCParams{Monitor: 99, Dies: 10, Cols: 10}}); err == nil {
		t.Fatal("bad monitor index accepted")
	}
}

func TestFig6(t *testing.T) {
	f, err := runAs[Fig6](context.Background(), Spec{Campaign: "fig6", Params: Fig6Params{Shift: 0.10, Grid: 101}}, WithSystem(sys()))
	if err != nil {
		t.Fatal(err)
	}
	if f.NumZones < 10 || f.NumZones > 30 {
		t.Fatalf("zones = %d", f.NumZones)
	}
	if len(f.GoldenSeq) < 5 || len(f.DefectSeq) < 5 {
		t.Fatal("traversal sequences too short")
	}
	r := f.Render()
	if !strings.Contains(r, "000000 (0)") {
		t.Fatalf("origin zone missing from render:\n%s", r)
	}
	if !strings.Contains(r, "->") {
		t.Fatal("traversal arrows missing")
	}
}

func TestFig7(t *testing.T) {
	f, err := runAs[Fig7](context.Background(), Spec{Campaign: "fig7", Params: Fig7Params{Shift: 0.10, Points: 400}}, WithSystem(sys()))
	if err != nil {
		t.Fatal(err)
	}
	// Headline number: paper reports NDF = 0.1021 at +10%.
	if f.NDF < 0.05 || f.NDF > 0.2 {
		t.Fatalf("NDF = %v, want same band as paper's 0.1021", f.NDF)
	}
	// Hamming chronogram is mostly 0/1 with occasional 2 (Fig. 7).
	count := map[int]int{}
	for _, h := range f.Hamming {
		count[h]++
	}
	if count[0] < len(f.Hamming)/2 {
		t.Fatal("golden and defect disagree more than half the period")
	}
	maxH := 0
	for h := range count {
		if h > maxH {
			maxH = h
		}
	}
	if maxH > 3 {
		t.Fatalf("max Hamming distance %d, paper shows 2", maxH)
	}
	if !strings.Contains(f.Render(), "0.1021") {
		t.Fatal("render should cite the paper value")
	}
	if !strings.HasPrefix(f.CSV(), "t_us,") {
		t.Fatal("CSV header wrong")
	}
}

func TestFig8(t *testing.T) {
	f, err := runAs[Fig8](context.Background(), Spec{Campaign: "fig8", Params: Fig8Params{MaxDev: 0.20, Points: 9, Tol: 0.05}}, WithSystem(sys()))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Devs) != 9 || f.Devs[4] != 0 {
		t.Fatalf("sweep grid wrong: %v", f.Devs)
	}
	if f.NDFs[4] != 0 {
		t.Fatalf("NDF at 0 deviation = %v", f.NDFs[4])
	}
	if f.Threshold <= 0 {
		t.Fatalf("threshold = %v", f.Threshold)
	}
	// Ends of the sweep must FAIL, center must PASS.
	r := f.Render()
	lines := strings.Split(strings.TrimSpace(r), "\n")
	if !strings.Contains(lines[2], "FAIL") {
		t.Fatalf("left extreme should FAIL:\n%s", r)
	}
	if !strings.Contains(lines[2+4], "PASS") {
		t.Fatalf("center should PASS:\n%s", r)
	}
	if !strings.HasPrefix(f.CSV(), "dev,ndf,pass\n") {
		t.Fatal("CSV header wrong")
	}
}

func TestNoiseDetection(t *testing.T) {
	if testing.Short() {
		t.Skip("long Monte-Carlo campaign, skipped under -short")
	}
	// Small but meaningful: 1% must be detected at high rate with the
	// paper's noise level; use modest trial counts to keep the test fast.
	n, err := runAs[Noise](context.Background(), Spec{Campaign: "noise", Seed: 42, Params: NoiseParams{Sigma: 0.005, Devs: []float64{0.01, 0.05}, NullTrials: 12, Trials: 12}}, WithSystem(sys()))
	if err != nil {
		t.Fatal(err)
	}
	if n.Threshold <= 0 {
		t.Fatal("null threshold not positive — noise produced no NDF floor")
	}
	if n.Detect[1] < 0.9 {
		t.Fatalf("5%% deviation detection = %v, want ~1", n.Detect[1])
	}
	// The 1% claim: detection well above the false-alarm rate.
	if n.Detect[0] <= n.FalseRate {
		t.Fatalf("1%% detection (%v) not above false-alarm rate (%v)", n.Detect[0], n.FalseRate)
	}
	if !strings.Contains(n.Render(), "detection") {
		t.Fatal("render malformed")
	}
}

func TestAblLinear(t *testing.T) {
	a, err := runAs[AblLinear](context.Background(), Spec{Campaign: "linear", Params: LinearParams{Devs: []float64{-0.10, -0.05, 0.05, 0.10}}}, WithSystem(sys()))
	if err != nil {
		t.Fatal(err)
	}
	if a.LinearUm2 <= a.NonlinearUm2*0.5 {
		t.Fatalf("cost model inverted: linear %v vs nonlinear %v", a.LinearUm2, a.NonlinearUm2)
	}
	for i := range a.Devs {
		if a.NonlinearNDF[i] <= 0 || a.LinearNDF[i] <= 0 {
			t.Fatalf("sensitivity lost at %v", a.Devs[i])
		}
	}
	if !strings.Contains(a.Render(), "zoning ablation") {
		t.Fatal("render malformed")
	}
}

// TestAblLinearFollowsObservation: both columns of the linear ablation
// observe the system's output. A band-pass system's straight-line
// column must differ from the low-pass run's, as its nonlinear column
// does; the straight-line system used to be built low-pass whatever the
// system observed.
func TestAblLinearFollowsObservation(t *testing.T) {
	devs := []float64{-0.10, 0.10}
	run := func(obs core.Observation) *AblLinear {
		s := core.Default()
		s.Observe = obs
		a, err := runAs[AblLinear](context.Background(), Spec{Campaign: "linear", Params: LinearParams{Devs: devs}}, WithSystem(s))
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	lp, bp := run(core.ObserveLP), run(core.ObserveBP)
	for i, d := range devs {
		if bp.NonlinearNDF[i] == lp.NonlinearNDF[i] {
			t.Fatalf("dev %v: nonlinear NDF %v on both observations", d, lp.NonlinearNDF[i])
		}
		if bp.LinearNDF[i] == lp.LinearNDF[i] {
			t.Fatalf("dev %v: straight-line NDF %v on both observations: the baseline system ignores Observe", d, lp.LinearNDF[i])
		}
	}
}

func TestAblCounter(t *testing.T) {
	a, err := runAs[AblCounter](context.Background(), Spec{Campaign: "counter", Params: CounterParams{Shift: 0.10, Bits: []int{8, 16}, Clocks: []float64{1e6, 10e6}}}, WithSystem(sys()))
	if err != nil {
		t.Fatal(err)
	}
	if a.ExactNDF <= 0 {
		t.Fatal("exact NDF must be positive at +10%")
	}
	// Faster clock at fixed bits must not be (much) worse.
	for i := range a.Bits {
		if a.AbsErr[i][1] > a.AbsErr[i][0]+0.01 {
			t.Fatalf("10 MHz worse than 1 MHz at %d bits: %v", a.Bits[i], a.AbsErr[i])
		}
	}
	// All quantization errors should be small vs the signal.
	for _, row := range a.AbsErr {
		for _, e := range row {
			if e > a.ExactNDF/2 {
				t.Fatalf("quantization error %v too large vs NDF %v", e, a.ExactNDF)
			}
		}
	}
	if !strings.Contains(a.Render(), "capture ablation") {
		t.Fatal("render malformed")
	}
}

func TestAblRegression(t *testing.T) {
	train := []float64{-0.20, -0.15, -0.10, -0.06, -0.03, 0, 0.03, 0.06, 0.10, 0.15, 0.20}
	test := []float64{-0.12, -0.04, 0.07, 0.12}
	a, err := runAs[AblRegression](context.Background(), Spec{Campaign: "regress", Params: RegressParams{TrainDevs: train, TestDevs: test}}, WithSystem(sys()))
	if err != nil {
		t.Fatal(err)
	}
	if a.TrainRMSE > 0.05 || a.TestRMSE > 0.10 {
		t.Fatalf("regression quality poor: train %v test %v", a.TrainRMSE, a.TestRMSE)
	}
	if !strings.Contains(a.Render(), "RMSE") {
		t.Fatal("render malformed")
	}
}
