package repro

import (
	"testing"

	"repro/internal/rng"
)

// TestPolarFillPinnedSpeedup pins the block polar draw's performance
// contract: one noise-plan block of polarBlockPairs pairs through
// PolarFill must beat as many Polar calls by at least polarFillFloor.
// Both sides draw the same pairs into the same slots
// (rng.TestPolarFillMatchesPolar), so the ratio is the block loop's
// own gain: the generator state kept in registers and the acceptance
// test taken without a branch. The verdict is the median over
// interleaved pairs (pairedRatio).
func TestPolarFillPinnedSpeedup(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing pin skipped in -short mode and under the race detector (both distort timing)")
	}
	var us, vs, r2s [polarBlockPairs]float64
	fillSrc, polarSrc := rng.New(1), rng.New(1)
	fill := func() error {
		fillSrc.PolarFill(us[:], vs[:], r2s[:])
		return nil
	}
	polar := func() error {
		for i := range us {
			us[i], vs[i], r2s[i] = polarSrc.Polar()
		}
		return nil
	}
	ratio := pairedRatio(t, pinPairs, 2000, polar, fill)
	t.Logf("one %d-pair block: PolarFill is %.2fx %d Polar calls", polarBlockPairs, ratio, polarBlockPairs)
	if ratio < polarFillFloor {
		t.Fatalf("PolarFill only %.2fx the per-pair Polar calls, pinned at >= %.2fx", ratio, polarFillFloor)
	}
}

// polarFillFloor is the pinned PolarFill-over-Polar ratio. On a
// 2-vCPU x86-64 host shared with other work, eleven runs of this test
// read paired medians of 1.99x to 2.49x, and three runs against the
// branchy fill loop it replaced read 1.35x to 1.42x, so the floor
// fails if the acceptance test turns back into a branch.
const polarFillFloor = 1.7
