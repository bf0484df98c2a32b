package testbench

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
)

func TestYieldSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("long Monte-Carlo campaign, skipped under -short")
	}
	s := sys()
	dec, err := CalibrateMultiParam(s, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	y, err := runAs[Yield](context.Background(), Spec{Campaign: "yield", Seed: 11, Params: YieldParams{N: 400, ComponentSigma: 0.02, Tol: 0.05, Threshold: &dec.Threshold}}, WithSystem(s))
	if err != nil {
		t.Fatal(err)
	}
	if y.N != 400 {
		t.Fatalf("N = %d", y.N)
	}
	// 2% component sigma: f0 = 1/(2πRC) has ~2.8% sigma; the ±5% spec
	// keeps the large majority of circuits good.
	if frac := float64(y.TrueGood) / float64(y.N); frac < 0.75 || frac > 0.99 {
		t.Fatalf("true-good fraction = %v, implausible for 2%% components", frac)
	}
	// A single scalar metric cannot match the rectangular spec region
	// exactly; corner calibration bounds both error types at the ~10%
	// level (the f0-only Fig. 8 calibration instead gives ~0 escapes but
	// >30% overkill — the tradeoff TestYieldThresholdTradeoff maps).
	if y.DefectLevel() > 0.14 {
		t.Fatalf("defect level %v too high", y.DefectLevel())
	}
	if y.OverkillRate() > 0.10 {
		t.Fatalf("overkill %v too high", y.OverkillRate())
	}
	// Counting identity: pass + fail = N; escapes <= pass; overkill <= good.
	if y.PassCount > y.N || y.Escapes > y.PassCount || y.Overkill > y.TrueGood {
		t.Fatalf("inconsistent counts: %+v", y)
	}
	// The Wilson intervals bracket their point estimates and are
	// non-degenerate at this population size.
	if rate := y.YieldRate(); rate < y.YieldLo || rate > y.YieldHi || y.YieldLo >= y.YieldHi {
		t.Fatalf("yield CI [%v, %v] malformed around %v", y.YieldLo, y.YieldHi, rate)
	}
	if d := y.DefectLevel(); d < y.DefectLo || d > y.DefectHi {
		t.Fatalf("defect CI [%v, %v] excludes %v", y.DefectLo, y.DefectHi, d)
	}
	if !strings.Contains(y.Render(), "defect level") || !strings.Contains(y.Render(), "95% CI") {
		t.Fatal("render malformed")
	}
}

func TestYieldThresholdTradeoff(t *testing.T) {
	if testing.Short() {
		t.Skip("long Monte-Carlo campaign, skipped under -short")
	}
	// Loosening the threshold must not decrease yield, and must not
	// decrease escapes; tightening trades the other way. This is the
	// Fig. 8 band picture expressed in production terms.
	s := sys()
	tight, err := runAs[Yield](context.Background(), Spec{Campaign: "yield", Seed: 3, Params: YieldParams{N: 120, ComponentSigma: 0.02, Tol: 0.05, Threshold: threshold(0.05)}}, WithSystem(s))
	if err != nil {
		t.Fatal(err)
	}
	loose, err := runAs[Yield](context.Background(), Spec{Campaign: "yield", Seed: 3, Params: YieldParams{N: 120, ComponentSigma: 0.02, Tol: 0.05, Threshold: threshold(0.20)}}, WithSystem(s))
	if err != nil {
		t.Fatal(err)
	}
	if loose.YieldRate() < tight.YieldRate() {
		t.Fatalf("loose threshold reduced yield: %v vs %v", loose.YieldRate(), tight.YieldRate())
	}
	if loose.Escapes < tight.Escapes {
		t.Fatalf("loose threshold reduced escapes: %d vs %d", loose.Escapes, tight.Escapes)
	}
	if tight.Overkill < loose.Overkill {
		t.Fatalf("tight threshold reduced overkill: %d vs %d", tight.Overkill, loose.Overkill)
	}
}

func TestYieldDegenerateRates(t *testing.T) {
	y := &Yield{N: 10}
	if y.DefectLevel() != 0 || y.OverkillRate() != 0 {
		t.Fatal("degenerate rates must be 0")
	}
}

func TestSelfTestDetectsStuckMonitors(t *testing.T) {
	s := sys()
	dec, err := s.CalibrateFromToleranceCtx(context.Background(), 0.05, 9, campaign.Engine{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := runAs[SelfTest](context.Background(), Spec{Campaign: "selftest", Params: SelfTestParams{Threshold: &dec.Threshold}}, WithSystem(s))
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != 12 { // 6 monitors x stuck@0/1
		t.Fatalf("faults = %d", st.Total)
	}
	// Every stuck output changes the instantaneous codes for a large
	// fraction of the period: each monitor's bit spends substantial time
	// on both sides during the golden traversal. All must be caught.
	for i, pair := range st.NDFs {
		for v, ndfVal := range pair {
			if ndfVal <= 0 {
				t.Fatalf("monitor %d stuck@%d invisible", i+1, v)
			}
		}
	}
	if st.Coverage() < 0.75 {
		t.Fatalf("stuck-at coverage = %v", st.Coverage())
	}
	if !strings.Contains(st.Render(), "self-test") {
		t.Fatal("render malformed")
	}
}

func TestWriteReportContainsAllArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("long Monte-Carlo campaign, skipped under -short")
	}
	var buf bytes.Buffer
	if err := WriteReport(context.Background(), &buf, sys()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"FIG1", "TAB1", "FIG4", "FIG6", "FIG7", "FIG8",
		"NOISE", "ABL", "EXT", "AREA",
		"0.1021",   // paper's headline value cited
		"16 zones", // partition size
		"53.54",    // published area
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "\n") < 12 {
		t.Fatal("report suspiciously short")
	}
}

// TestYieldLargeComponentSigmaRuns: a yield spec whose component spread
// draws drifts at or below −1 validates and runs, because such a drift
// is drawn again from the die's stream (see YieldParams). At n = 400,
// σ = 0.3 used to fail on 17 of seeds 1–40 and σ = 0.5 on all 40, with
// a component that must be positive. The bound MaxComponentSigma runs
// too. The analytic backend runs every seed (four under -short), the
// SPICE backend three (one). The reduced
// scan resolution only cheapens each die; the die draws are the
// campaign's.
func TestYieldLargeComponentSigmaRuns(t *testing.T) {
	analyticSeeds, spiceSeeds := 40, 3
	if testing.Short() {
		analyticSeeds, spiceSeeds = 4, 1
	}
	analytic := core.Default()
	spice, err := core.DefaultSpice()
	if err != nil {
		t.Fatal(err)
	}
	analytic.ScanN, spice.ScanN = 256, 256
	thr := 0.05
	for _, sigma := range []float64{0.3, 0.5, MaxComponentSigma} {
		for _, b := range []struct {
			sys   *core.System
			seeds int
		}{{analytic, analyticSeeds}, {spice, spiceSeeds}} {
			for seed := 1; seed <= b.seeds; seed++ {
				spec := Spec{Campaign: "yield", Seed: uint64(seed),
					Params: YieldParams{N: 400, ComponentSigma: sigma, Tol: 0.05, Threshold: &thr}}
				if err := Validate(spec); err != nil {
					t.Fatalf("sigma %g seed %d: Validate = %v", sigma, seed, err)
				}
				res, err := Run(context.Background(), spec, WithSystem(b.sys))
				if err != nil {
					t.Fatalf("%s sigma %g seed %d passed Validate, then failed: %v", b.sys.CUT.Describe(), sigma, seed, err)
				}
				if y := res.Payload.(*Yield); y.N != 400 || y.TrueGood > 400 {
					t.Fatalf("sigma %g seed %d: payload %+v", sigma, seed, y)
				}
			}
		}
	}
}
