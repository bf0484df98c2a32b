package testbench

import (
	"context"

	"repro/internal/biquad"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/ndf"
)

// The yield and fault reductions over an explicit system and decision:
// the registry definitions (registerReduction) with the system and the
// decision injected, so engine-agreement tests can pit two systems
// against each other on the same trials.

// runYield draws n CUTs with component sigma, tests each against the
// decision, and scores against the spec (registry campaign "yield"): the
// yield trial streamed through the checkpointable reduction over the
// full die range. Peak memory is O(workers + chunk) whatever n is, and
// the scores are bit-identical at any worker count.
func runYield(ctx context.Context, sys *core.System, dec ndf.Decision, n int, componentSigma, tol float64, eng campaign.Engine) (*Yield, error) {
	tf, err := yieldTrial(sys, dec, componentSigma, tol, eng)
	if err != nil {
		return nil, err
	}
	counts, err := campaign.ReduceSpanScratch(ctx, eng, campaign.Span{Hi: n}, nil, nil, yieldReducer().Reducer, core.NewTrialScratch, tf.one, tf.two)
	if err != nil {
		return nil, err
	}
	return finalizeYield(counts, n, componentSigma, tol, dec.Threshold), nil
}

// runFaultTable injects every fault into the golden realization (via
// CUT.Perturb, so the injection happens at component level on whichever
// backend the system runs — analytic model or SPICE netlist) and tests
// the faulty circuit with the given decision threshold (registry
// campaign "faults"). The fault injections stream through the campaign
// reduction engine: each
// chunk folds its cases into an ordered slice and chunks concatenate in
// index order, so the table rows stay in fault order at any worker
// count while the engine's memory stays O(workers + chunk).
func runFaultTable(ctx context.Context, sys *core.System, dec ndf.Decision, faults []biquad.Fault, eng campaign.Engine) (*FaultTable, error) {
	tf, err := faultTrial(sys, dec, faults)
	if err != nil {
		return nil, err
	}
	cases, err := campaign.ReduceSpanScratch(ctx, eng, campaign.Span{Hi: len(faults)}, nil, nil, faultReducer().Reducer, core.NewTrialScratch, tf.one, tf.two)
	if err != nil {
		return nil, err
	}
	return finalizeFaultTable(dec.Threshold, cases), nil
}
