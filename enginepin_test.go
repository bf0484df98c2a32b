package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
)

// TestBatchedEnginePinnedSpeedup pins the batched signature engine's
// performance contract: the batched SignatureCapture and AveragedNDF
// paths must be at least 5× faster than the retained scalar baseline on
// the Tow-Thomas default system. Measured headroom is ~10×, so the pin
// tolerates machine noise; it decides on the median over interleaved
// pairs (pairedRatio) to stay robust on loaded CI.
// The companion bit-identity tests (core.TestBatched*, testbench
// Test*ScalarVsBatched) guarantee the speed never costs a single bit.
func TestBatchedEnginePinnedSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing pin skipped in -short mode (race CI distorts timing)")
	}
	batched := core.Default()
	scalar := core.Default()
	scalar.Scalar = true
	cb, err := batched.Shifted(0.10)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := scalar.Shifted(0.10)
	if err != nil {
		t.Fatal(err)
	}
	// Build the noise plans and warm every cache (zone LUT, stimulus
	// grids, golden signature, trial scratch) outside the timed region.
	pb, err := batched.NoisePlan(cb, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := scalar.NoisePlan(cs, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	scB, scS := core.NewTrialScratch(), core.NewTrialScratch()
	if _, err := pb.AveragedNDF(rng.New(1), 1, scB); err != nil {
		t.Fatal(err)
	}
	if _, err := ps.AveragedNDF(rng.New(1), 1, scS); err != nil {
		t.Fatal(err)
	}

	speedup := func(name string, iters int, batchedOp, scalarOp func() error) {
		ratio := pairedRatio(t, iters, scalarOp, batchedOp)
		t.Logf("%s: batched is %.1fx the scalar baseline", name, ratio)
		if ratio < 5 {
			t.Fatalf("%s: batched engine only %.2fx the scalar baseline, pinned at >= 5x", name, ratio)
		}
	}

	speedup("SignatureCapture", 20,
		func() error {
			_, err := batched.CapturedSignature(cb, 0, nil)
			return err
		},
		func() error {
			_, err := scalar.CapturedSignature(cs, 0, nil)
			return err
		})

	srcB, srcS := rng.New(9), rng.New(9)
	speedup("AveragedNDF", 5,
		func() error {
			_, err := pb.AveragedNDF(srcB.Split(0), 4, scB)
			return err
		},
		func() error {
			_, err := ps.AveragedNDF(srcS.Split(0), 4, scS)
			return err
		})
}
