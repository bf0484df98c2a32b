package testbench

import (
	"context"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/ndf"
	"repro/internal/rng"
)

// scalarSystem returns the paper's system on the named backend with the
// batched signature engine disabled — the reference baseline.
func scalarSystem(t *testing.T, backend string) *core.System {
	t.Helper()
	sys, err := core.SystemForBackend(backend)
	if err != nil {
		t.Fatal(err)
	}
	sys.Scalar = true
	return sys
}

func batchedSystem(t *testing.T, backend string) *core.System {
	t.Helper()
	sys, err := core.SystemForBackend(backend)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestFaultTableScalarVsBatched: the component-fault campaign must
// produce identical NDFs and verdicts on both engines, at any worker
// count.
func TestFaultTableScalarVsBatched(t *testing.T) {
	dec := ndf.Decision{Threshold: 0.02}
	faults := DefaultFaultSet()
	want, err := runFaultTable(context.Background(), scalarSystem(t, "analytic"), dec, faults, campaign.Engine{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		got, err := runFaultTable(context.Background(), batchedSystem(t, "analytic"), dec, faults, campaign.Engine{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Cases) != len(want.Cases) {
			t.Fatalf("workers %d: %d cases vs %d", workers, len(got.Cases), len(want.Cases))
		}
		for i := range want.Cases {
			if got.Cases[i].NDF != want.Cases[i].NDF || got.Cases[i].Detected != want.Cases[i].Detected {
				t.Fatalf("workers %d, fault %s: batched (%v, %v), scalar (%v, %v)",
					workers, want.Cases[i].Fault,
					got.Cases[i].NDF, got.Cases[i].Detected,
					want.Cases[i].NDF, want.Cases[i].Detected)
			}
		}
	}
}

// TestYieldScalarVsBatched: the production-yield simulation must score
// identically on both engines.
func TestYieldScalarVsBatched(t *testing.T) {
	dec := ndf.Decision{Threshold: 0.03}
	want, err := runAs[Yield](context.Background(), Spec{Campaign: "yield", Seed: 7, Params: YieldParams{N: 40, ComponentSigma: 0.02, Tol: 0.05, Threshold: &dec.Threshold}}, WithSystem(scalarSystem(t, "analytic")))
	if err != nil {
		t.Fatal(err)
	}
	got, err := runAs[Yield](context.Background(), Spec{Campaign: "yield", Seed: 7, Params: YieldParams{N: 40, ComponentSigma: 0.02, Tol: 0.05, Threshold: &dec.Threshold}}, WithSystem(batchedSystem(t, "analytic")))
	if err != nil {
		t.Fatal(err)
	}
	if got.TrueGood != want.TrueGood || got.PassCount != want.PassCount ||
		got.Escapes != want.Escapes || got.Overkill != want.Overkill {
		t.Fatalf("batched %+v, scalar %+v", got, want)
	}
}

// TestNoiseDetectionScalarVsBatched: the noisy averaged-NDF campaign —
// the heaviest consumer of the capture path — must produce identical
// detection rates and thresholds.
func TestNoiseDetectionScalarVsBatched(t *testing.T) {
	want, err := runAs[Noise](context.Background(), Spec{Campaign: "noise", Seed: 42, Params: NoiseParams{Sigma: 0.005, Devs: []float64{0.02}, NullTrials: 4, Trials: 4}}, WithSystem(scalarSystem(t, "analytic")))
	if err != nil {
		t.Fatal(err)
	}
	got, err := runAs[Noise](context.Background(), Spec{Campaign: "noise", Seed: 42, Params: NoiseParams{Sigma: 0.005, Devs: []float64{0.02}, NullTrials: 4, Trials: 4}}, WithSystem(batchedSystem(t, "analytic")))
	if err != nil {
		t.Fatal(err)
	}
	if got.Threshold != want.Threshold || got.FalseRate != want.FalseRate {
		t.Fatalf("threshold/false-rate: batched (%v, %v), scalar (%v, %v)",
			got.Threshold, got.FalseRate, want.Threshold, want.FalseRate)
	}
	for i := range want.Detect {
		if got.Detect[i] != want.Detect[i] {
			t.Fatalf("detect[%d]: batched %v, scalar %v", i, got.Detect[i], want.Detect[i])
		}
	}
}

// TestSpiceBackendScalarVsBatched: the same engine agreement on the
// SPICE netlist backend (reduced campaign — the transient dominates the
// runtime, so -short skips it like the other SPICE campaigns).
func TestSpiceBackendScalarVsBatched(t *testing.T) {
	if testing.Short() {
		t.Skip("SPICE campaign in -short mode")
	}
	shifts := []float64{-0.10, 0, 0.10}
	want, err := scalarSystem(t, "spice").SweepF0Ctx(context.Background(), shifts, campaign.Engine{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := batchedSystem(t, "spice").SweepF0Ctx(context.Background(), shifts, campaign.Engine{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("shift %g: batched %v, scalar %v", shifts[i], got[i], want[i])
		}
	}
	// One noisy averaged capture on the netlist engine.
	sysB, sysS := batchedSystem(t, "spice"), scalarSystem(t, "spice")
	cb, err := sysB.Shifted(0.05)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := sysS.Shifted(0.05)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := sysB.NoisePlan(cb, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := sysS.NoisePlan(cs, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := pb.AveragedNDF(rng.New(33), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	vs, err := ps.AveragedNDF(rng.New(33), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if vb != vs {
		t.Fatalf("spice AveragedNDF: batched %v, scalar %v", vb, vs)
	}
}
