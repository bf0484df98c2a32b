package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
)

// TestBatchedEnginePinnedSpeedup pins the batched signature engine's
// performance contract, in the style of the SPICE transient fast-path
// pin (BenchmarkTransientTowThomasLinear vs the Newton baseline): the
// batched SignatureCapture and AveragedNDF paths must be at least 5×
// faster than the retained scalar baseline on the Tow-Thomas default
// system. Measured headroom is ~10×, so the pin tolerates machine noise;
// it still takes the best of three rounds to stay robust on loaded CI.
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
	scB, scS := core.NewTrialScratch(), core.NewTrialScratch()
	// Warm every cache (zone LUT, stimulus grids, golden signature)
	// outside the timed region.
	if _, err := batched.AveragedNDFScratch(cb, 0.005, rng.New(1), 1, scB); err != nil {
		t.Fatal(err)
	}
	if _, err := scalar.AveragedNDFScratch(cs, 0.005, rng.New(1), 1, scS); err != nil {
		t.Fatal(err)
	}

	// The measured ops report errors through opErr rather than t.Fatal:
	// testing.Benchmark runs its closure on a separate goroutine, where
	// t.Fatal must not be called.
	var opErr error
	speedup := func(name string, batchedOp, scalarOp func() error) {
		best := 0.0
		for round := 0; round < 3 && best < 5; round++ {
			rb := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N && opErr == nil; i++ {
					opErr = batchedOp()
				}
			})
			rs := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N && opErr == nil; i++ {
					opErr = scalarOp()
				}
			})
			if opErr != nil {
				t.Fatalf("%s: %v", name, opErr)
			}
			if ratio := float64(rs.NsPerOp()) / float64(rb.NsPerOp()); ratio > best {
				best = ratio
			}
		}
		t.Logf("%s: batched is %.1fx the scalar baseline", name, best)
		if best < 5 {
			t.Fatalf("%s: batched engine only %.2fx the scalar baseline, pinned at >= 5x", name, best)
		}
	}

	speedup("SignatureCapture",
		func() error {
			_, err := batched.CapturedSignature(cb, 0, nil)
			return err
		},
		func() error {
			_, err := scalar.CapturedSignature(cs, 0, nil)
			return err
		})

	srcB, srcS := rng.New(9), rng.New(9)
	speedup("AveragedNDF",
		func() error {
			_, err := batched.AveragedNDFScratch(cb, 0.005, srcB.Split(0), 4, scB)
			return err
		},
		func() error {
			_, err := scalar.AveragedNDFScratch(cs, 0.005, srcS.Split(0), 4, scS)
			return err
		})
}
