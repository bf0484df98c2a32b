package repro

import (
	"errors"
	"testing"

	"repro/internal/biquad"
	"repro/internal/campaign"
	"repro/internal/core"
)

// spicePinFaults is the BenchmarkFaultTableSpice fault set — the
// "FaultTableSpice-shaped work" the trial-engine pin runs on.
func spicePinFaults() []biquad.Fault {
	return []biquad.Fault{
		{Kind: biquad.FaultParametric, Target: biquad.TargetR, Frac: 0.10},
		{Kind: biquad.FaultOpen, Target: biquad.TargetRQ},
		{Kind: biquad.FaultShort, Target: biquad.TargetC},
	}
}

// TestSpiceTrialEnginePinnedSpeedup pins the trial-template engine's
// performance contract, in the style of TestBatchedEnginePinnedSpeedup:
// SPICE trial throughput — perturb the golden netlist, run the settling
// + capture transient, observe the output — on the FaultTableSpice
// fault set, served sequentially through SpiceCUT.OutputScratch on one
// reused scratch (what a campaign worker does), must beat the
// rebuild-per-trial oracle SpiceCUT.RebuildOutput by at least
// spiceTemplateFloor. The timed unit is the campaign's per-trial SPICE
// work; signature extraction is shared verbatim by both paths and
// pinned bit-identical end to end by
// TestSpiceTemplateCampaignBitIdentity, so it is excluded here to keep
// the pin measuring the engine under test. The rebuild side pays netlist
// elaboration, restamped transients and fresh buffers per trial. The pin
// tolerates machine noise by deciding on the median over interleaved
// pairs (pairedRatio); the companion bit-identity tests (spice
// TestCircuitTemplateMatchesRebuild, biquad TestOutputMatchesRebuild,
// testbench TestSpiceTemplateCampaignBitIdentity) guarantee the speed
// never costs a single bit.
func TestSpiceTrialEnginePinnedSpeedup(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing pin skipped in -short mode and under the race detector (both distort timing)")
	}
	sys, err := core.DefaultSpice()
	if err != nil {
		t.Fatal(err)
	}
	root := sys.CUT.(*biquad.SpiceCUT)
	stim := sys.Stimulus

	// Four repetitions of the fault set per op, like a fault-table block.
	const reps = 4
	faults := spicePinFaults()
	perturb := func() ([]*biquad.SpiceCUT, error) {
		cuts := make([]*biquad.SpiceCUT, 0, reps*len(faults))
		for r := 0; r < reps; r++ {
			for i := range faults {
				c, err := root.Perturb(biquad.Deviation{Fault: &faults[i]})
				if err != nil {
					return nil, err
				}
				cuts = append(cuts, c.(*biquad.SpiceCUT))
			}
		}
		return cuts, nil
	}
	var sink float64
	var sc biquad.SpiceTrialScratch
	tmplOp := func() error {
		cuts, err := perturb()
		if err != nil {
			return err
		}
		for _, c := range cuts {
			w, err := c.OutputScratch(stim, biquad.OutputLP, &sc)
			if err != nil {
				return err
			}
			sink += w.Eval(0)
		}
		return nil
	}
	rbldOp := func() error {
		cuts, err := perturb()
		if err != nil {
			return err
		}
		for _, c := range cuts {
			w, err := c.RebuildOutput(stim, biquad.OutputLP)
			if err != nil {
				return err
			}
			sink += w.Eval(0)
		}
		return nil
	}
	// Warm both paths outside the timed region (the tick cache, the
	// scratch template) and surface any setup error early.
	if err := tmplOp(); err != nil {
		t.Fatal(err)
	}
	if err := rbldOp(); err != nil {
		t.Fatal(err)
	}

	ratio := pairedRatio(t, pinPairs, 2, rbldOp, tmplOp)
	t.Logf("FaultTableSpice trials: sequential trial templates are %.2fx the rebuild-per-trial path", ratio)
	if ratio < spiceTemplateFloor {
		t.Fatalf("trial-template engine only %.2fx the rebuild path, pinned at >= %.2fx", ratio, spiceTemplateFloor)
	}
	_ = sink
}

// spiceTemplateFloor is the pinned template-over-rebuild ratio. Ten
// runs of this test on a 2-vCPU x86-64 host shared with other work
// measured paired medians of 1.87x to 2.31x (most near 2.0x), and
// 8-call runs read 2.04x to 2.15x; the floor still fails if the
// template path ever degrades to rebuild speed, which reads 1.02x.
const spiceTemplateFloor = 1.8

// TestSpicePairPinnedSpeedup pins the two-lane transient: eight 2 %
// yield dies' SPICE outputs, run as four lock-step pairs through
// biquad.OutputPair on two scratches, must beat the same eight dies run
// one lane at a time through OutputScratch on one scratch by at least
// spicePairFloor. Each lane is pinned bit-identical to OutputScratch by
// biquad TestOutputPairMatchesRebuild, so the speed costs no bit.
func TestSpicePairPinnedSpeedup(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing pin skipped in -short mode and under the race detector (both distort timing)")
	}
	sys, err := core.DefaultSpice()
	if err != nil {
		t.Fatal(err)
	}
	eng := campaign.Engine{Seed: 5}
	var cuts [8]*biquad.SpiceCUT
	for i := range cuts {
		c, err := yieldDie(sys, eng, i)
		if err != nil {
			t.Fatal(err)
		}
		cuts[i] = c.(*biquad.SpiceCUT)
	}
	var one, lane0, lane1 biquad.SpiceTrialScratch
	oneLane := func() error {
		for _, c := range cuts {
			if _, err := c.OutputScratch(sys.Stimulus, biquad.OutputLP, &one); err != nil {
				return err
			}
		}
		return nil
	}
	paired := func() error {
		for i := 0; i < len(cuts); i += 2 {
			_, _, err0, err1 := biquad.OutputPair(sys.Stimulus, biquad.OutputLP, cuts[i], cuts[i+1], &lane0, &lane1)
			if err := errors.Join(err0, err1); err != nil {
				return err
			}
		}
		return nil
	}
	ratio := pairedRatio(t, 48, 2, oneLane, paired)
	t.Logf("two-lane transients are %.2fx one lane at a time", ratio)
	if ratio < spicePairFloor {
		t.Fatalf("lock-step pairs only %.2fx one lane at a time, pinned at >= %.2fx", ratio, spicePairFloor)
	}
}

// spicePairFloor is the pinned pair-over-one-lane ratio. Ten runs on a
// 2-vCPU x86-64 host read medians of 1.29x to 1.40x (per-pair ratios
// 0.80x to 2.57x, hence the 48 short pairs). Lock step with a separate
// solve per lane and step read 1.02x in a prototype, which the floor
// fails.
const spicePairFloor = 1.15
