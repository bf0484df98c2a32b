package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ndf"
	"repro/internal/rng"
	"repro/internal/signature"
)

// refExact is the per-point reference of System.ExactSignature:
// Classify at every scan point and every bisection midpoint.
func refExact(s *core.System, c core.CUT) (*signature.Signature, error) {
	cls, err := s.Classifier(c, 0, nil)
	if err != nil {
		return nil, err
	}
	return signature.Exact(cls, s.Period(), s.ScanN, 0)
}

// refCapture is the per-tick reference of System.CapturedSignature: at
// every tick x + Gauss(0, eff) and y + Gauss(0, eff) from noise,
// Classify, and the capture walk.
func refCapture(s *core.System, c core.CUT, sigma float64, noise *rng.Stream, buf *signature.CaptureBuffer) (*signature.Signature, error) {
	cls, err := s.Classifier(c, sigma, noise)
	if err != nil {
		return nil, err
	}
	return signature.CaptureCanonical(cls, s.Period(), s.Capture, buf)
}

// refAveragedNDF is the per-tick reference of NoisePlan.AveragedNDF:
// refCapture of each period on noise.Split(k), its NDF against the
// golden signature g, summed in period order.
func refAveragedNDF(s *core.System, c core.CUT, sigma float64, noise *rng.Stream, periods int, g *signature.Signature, buf *signature.CaptureBuffer) (float64, error) {
	sum := 0.0
	for k := 0; k < periods; k++ {
		obs, err := refCapture(s, c, sigma, noise.Split(uint64(k)), buf)
		if err != nil {
			return 0, err
		}
		v, err := ndf.NDF(obs, g)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum / float64(periods), nil
}

// TestBatchedEnginePinnedSpeedup pins the signature engine's performance
// contract: the zone-LUT SignatureCapture and AveragedNDF paths must be
// at least 5× faster than their per-tick references (refCapture and
// refAveragedNDF, Classify at every tick) on the Tow-Thomas default
// system. Measured headroom is ~10×, so the pin tolerates machine noise;
// it decides on the median over interleaved pairs (pairedRatio) to stay
// robust on loaded CI. The companion bit-identity tests
// (core.TestBatched*, testbench Test*ScalarVsBatched) guarantee the
// speed never costs a single bit.
func TestBatchedEnginePinnedSpeedup(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing pin skipped in -short mode and under the race detector (both distort timing)")
	}
	sys := core.Default()
	c, err := sys.Shifted(0.10)
	if err != nil {
		t.Fatal(err)
	}
	// Build the noise plan and warm every cache (zone LUT, stimulus
	// grids, golden signature, trial scratch) outside the timed region.
	p, err := sys.NoisePlan(c, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	g, err := sys.GoldenSignature()
	if err != nil {
		t.Fatal(err)
	}
	sc, buf := core.NewTrialScratch(), new(signature.CaptureBuffer)
	if _, err := p.AveragedNDF(rng.New(1), 1, sc); err != nil {
		t.Fatal(err)
	}
	if _, err := refAveragedNDF(sys, c, 0.005, rng.New(1), 1, g, buf); err != nil {
		t.Fatal(err)
	}

	speedup := func(name string, iters int, batchedOp, refOp func() error) {
		ratio := pairedRatio(t, pinPairs, iters, refOp, batchedOp)
		t.Logf("%s: batched is %.1fx the per-tick reference", name, ratio)
		if ratio < 5 {
			t.Fatalf("%s: batched engine only %.2fx the per-tick reference, pinned at >= 5x", name, ratio)
		}
	}

	speedup("SignatureCapture", 20,
		func() error {
			_, err := sys.CapturedSignature(c, 0, nil)
			return err
		},
		func() error {
			_, err := refCapture(sys, c, 0, nil, nil)
			return err
		})

	srcB, srcR := rng.New(9), rng.New(9)
	speedup("AveragedNDF", 5,
		func() error {
			_, err := p.AveragedNDF(srcB.Split(0), 4, sc)
			return err
		},
		func() error {
			_, err := refAveragedNDF(sys, c, 0.005, srcR.Split(0), 4, g, buf)
			return err
		})
}
