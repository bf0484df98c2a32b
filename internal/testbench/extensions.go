package testbench

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/biquad"
	"repro/internal/core"
	"repro/internal/ndf"
	"repro/internal/stat"
)

// ExtQ is the Q-verification extension: NDF vs Q deviation under both
// low-pass (the paper's) and band-pass (ref [14]-style) observation.
// The paper verifies f0 only and lists multi-parameter verification as
// the natural generalization; the band-pass output makes Q visible to
// the same monitor bank.
type ExtQ struct {
	Devs  []float64
	LPNDF []float64
	BPNDF []float64
}

// runExtQ sweeps fractional Q deviations (registry campaign "q").
func runExtQ(ctx context.Context, sys *core.System, devs []float64) (*ExtQ, error) {
	bpSys, err := derive(sys, sys.Stimulus, sys.Bank, sys.Capture)
	if err != nil {
		return nil, err
	}
	bpSys.Observe = core.ObserveBP
	out := &ExtQ{Devs: devs}
	for _, d := range devs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		dev := core.Deviation{QShift: d}
		lp, err := sys.NDFOfDeviation(dev)
		if err != nil {
			return nil, err
		}
		bp, err := bpSys.NDFOfDeviation(dev)
		if err != nil {
			return nil, err
		}
		out.LPNDF = append(out.LPNDF, lp)
		out.BPNDF = append(out.BPNDF, bp)
	}
	return out, nil
}

// Render prints the comparison.
func (e *ExtQ) Render() string {
	var b strings.Builder
	b.WriteString("Q-verification extension: NDF vs Q deviation\n")
	b.WriteString("dev%    LP-observed  BP-observed\n")
	for i := range e.Devs {
		fmt.Fprintf(&b, "%+5.1f   %.4f       %.4f\n", e.Devs[i]*100, e.LPNDF[i], e.BPNDF[i])
	}
	return b.String()
}

// FaultCase is one entry of the component-fault campaign.
type FaultCase struct {
	Fault    biquad.Fault
	Params   biquad.Params
	NDF      float64
	Detected bool
}

// FaultTable is the component-level fault campaign: every parametric and
// catastrophic fault of the Tow-Thomas realization, its behavioural
// effect, its NDF, and the test verdict. CoverageLo/CoverageHi bound
// the detected fraction with an exact 95% Clopper-Pearson interval —
// fault lists are small, so the normal approximation behind Wilson is
// not defensible here.
type FaultTable struct {
	Threshold  float64
	Cases      []FaultCase
	CoverageLo float64
	CoverageHi float64
}

// DefaultFaultSet returns the campaign fault list: ±10% parametric
// drifts on every component plus the classic opens and shorts.
func DefaultFaultSet() []biquad.Fault {
	var out []biquad.Fault
	targets := []biquad.Target{biquad.TargetR, biquad.TargetRQ, biquad.TargetRG, biquad.TargetC}
	for _, tgt := range targets {
		for _, frac := range []float64{-0.10, 0.10} {
			out = append(out, biquad.Fault{Kind: biquad.FaultParametric, Target: tgt, Frac: frac})
		}
	}
	for _, tgt := range targets {
		out = append(out,
			biquad.Fault{Kind: biquad.FaultOpen, Target: tgt},
			biquad.Fault{Kind: biquad.FaultShort, Target: tgt},
		)
	}
	return out
}

// faultTrial builds the per-fault trial forms of the fault campaign:
// inject fault i, test the faulty circuit, record the scored case. The
// golden signature is materialized here, before fan-out, so the
// sync.Once does not serialize the workers; each case depends only on
// its fault index, so any contiguous range replays exactly.
func faultTrial(sys *core.System, dec ndf.Decision, faults []biquad.Fault) (trialForms[FaultCase], error) {
	if _, err := sys.GoldenSignature(); err != nil {
		return trialForms[FaultCase]{}, err
	}
	inject := func(i int) (core.CUT, biquad.Fault, error) {
		f := faults[i]
		cut, err := sys.Deviated(core.Deviation{Fault: &f})
		if err != nil {
			return nil, f, fmt.Errorf("testbench: fault %s: %w", f, err)
		}
		return cut, f, nil
	}
	return dieTrials(sys, inject, func(cut core.CUT, f biquad.Fault, v float64, err error) (FaultCase, error) {
		if err != nil {
			return FaultCase{}, fmt.Errorf("testbench: fault %s: %w", f, err)
		}
		return FaultCase{Fault: f, Params: cut.Params(), NDF: v, Detected: !dec.Pass(v)}, nil
	}), nil
}

// finalizeFaultTable scores the ordered case list into the published
// table with its Clopper-Pearson coverage interval — shared by the
// in-process run and the fabric's merge-on-complete path.
func finalizeFaultTable(threshold float64, cases []FaultCase) *FaultTable {
	out := &FaultTable{Threshold: threshold, Cases: cases}
	if n := len(cases); n > 0 {
		detected := 0
		for _, c := range cases {
			if c.Detected {
				detected++
			}
		}
		out.CoverageLo, out.CoverageHi = stat.ClopperPearson(detected, n, 0.95)
	}
	return out
}

// Coverage returns the fraction of faults detected.
func (t *FaultTable) Coverage() float64 {
	if len(t.Cases) == 0 {
		return 0
	}
	n := 0
	for _, c := range t.Cases {
		if c.Detected {
			n++
		}
	}
	return float64(n) / float64(len(t.Cases))
}

// Render prints the campaign table.
func (t *FaultTable) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "component fault campaign (threshold %.4f)\n", t.Threshold)
	b.WriteString("fault        f0(kHz)    Q          NDF      verdict\n")
	for _, c := range t.Cases {
		verdict := "PASS (escape)"
		if c.Detected {
			verdict = "FAIL (detected)"
		}
		fmt.Fprintf(&b, "%-12s %-10.3g %-10.3g %.4f   %s\n",
			c.Fault, c.Params.F0/1e3, c.Params.Q, c.NDF, verdict)
	}
	fmt.Fprintf(&b, "coverage: %.0f%% (95%% CI %.0f%%–%.0f%%)\n",
		100*t.Coverage(), 100*t.CoverageLo, 100*t.CoverageHi)
	return b.String()
}
