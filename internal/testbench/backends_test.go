package testbench

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/biquad"
	"repro/internal/campaign"
	"repro/internal/core"
)

// TestBackendAgreement is the campaign-level cross-validation: the full
// test path must produce nearly identical NDF curves on the analytic and
// SPICE backends, and the golden output waveforms must coincide within
// the transient integrator's accuracy budget.
func TestBackendAgreement(t *testing.T) {
	ba, err := runAs[BackendAgreement](context.Background(), Spec{Campaign: "backends", Params: BackendsParams{Shifts: []float64{-0.10, -0.05, 0, 0.05, 0.10}}})
	if err != nil {
		t.Fatal(err)
	}
	if ba.MaxWaveDelta > 2e-3 {
		t.Fatalf("golden waveform discrepancy %v V", ba.MaxWaveDelta)
	}
	for i := range ba.Shifts {
		if gap := math.Abs(ba.SpiceNDF[i] - ba.AnalyticNDF[i]); gap > 5e-3 {
			t.Fatalf("NDF gap between backends at shift %g = %v", ba.Shifts[i], gap)
		}
	}
	// The golden CUT must read exactly zero on both backends (each is
	// compared against its own golden signature).
	for i, s := range ba.Shifts {
		if s == 0 && (ba.AnalyticNDF[i] != 0 || ba.SpiceNDF[i] != 0) {
			t.Fatalf("golden NDF nonzero: analytic %v, spice %v",
				ba.AnalyticNDF[i], ba.SpiceNDF[i])
		}
	}
	if !strings.Contains(ba.Render(), "backend agreement") {
		t.Fatal("render malformed")
	}
}

// TestFaultTableOnSpiceBackend runs the (reduced) component fault
// campaign end to end on the SPICE netlist engine — the cmd/mcmon
// -backend=spice path — and checks the catastrophic faults are caught.
func TestFaultTableOnSpiceBackend(t *testing.T) {
	if testing.Short() {
		t.Skip("SPICE fault campaign skipped under -short")
	}
	sys, err := core.DefaultSpice()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := sys.CalibrateFromToleranceCtx(context.Background(), 0.05, 9, campaign.Engine{})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Threshold <= 0 {
		t.Fatalf("SPICE-calibrated threshold = %v", dec.Threshold)
	}
	tab, err := runAs[FaultTable](context.Background(), Spec{Campaign: "faults", Params: FaultsParams{Threshold: &dec.Threshold, Faults: DefaultFaultSet()}}, WithSystem(sys))
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Cases) != 16 {
		t.Fatalf("cases = %d", len(tab.Cases))
	}
	for _, c := range tab.Cases {
		if c.Fault.Kind != biquad.FaultParametric && !c.Detected {
			t.Fatalf("catastrophic fault %s escaped on the SPICE backend (NDF %v)", c.Fault, c.NDF)
		}
	}
	if cov := tab.Coverage(); cov < 0.7 {
		t.Fatalf("SPICE-backend coverage = %v, implausibly low", cov)
	}
}

// TestSpiceBackendDeterministicAcrossWorkers extends the campaign
// engine's bit-reproducibility contract to the SPICE backend: the fault
// table (whose trials share the workspace pool in arbitrary worker
// order) must render byte-identical at any worker count.
func TestSpiceBackendDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("SPICE determinism campaign skipped under -short")
	}
	thr := 0.02
	run := func(workers int) string {
		sys, err := core.DefaultSpice()
		if err != nil {
			t.Fatal(err)
		}
		// A fixed threshold keeps the test on the campaign itself, not
		// the calibration sweep.
		tab, err := runAs[FaultTable](context.Background(), Spec{
			Campaign: "faults",
			Workers:  workers,
			Params:   FaultsParams{Threshold: &thr},
		}, WithSystem(sys))
		if err != nil {
			t.Fatal(err)
		}
		return tab.Render()
	}
	ref := run(1)
	for _, w := range workerCounts()[1:] {
		if got := run(w); got != ref {
			t.Fatalf("workers=%d: SPICE fault table differs from workers=1:\n%s\nvs\n%s", w, got, ref)
		}
	}
}
