package testbench

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/campaign"
	"repro/internal/core"
)

// BackendAgreement is the SPICE-vs-analytic cross-validation study: the
// same deviation sweep is run end to end (stimulus → CUT → monitor bank
// → signature → NDF) on both CUT backends and the per-point NDF gap is
// recorded, together with the worst pointwise discrepancy between the
// two golden output waveforms. It is the campaign-level evidence that
// the SPICE netlist engine and the closed-form model describe the same
// circuit, so fault and yield campaigns may choose either backend on a
// pure speed/fidelity tradeoff.
type BackendAgreement struct {
	Shifts      []float64
	AnalyticNDF []float64
	SpiceNDF    []float64
	// MaxWaveDelta is max_t |y_spice(t) − y_analytic(t)| of the golden
	// low-pass outputs over one period.
	MaxWaveDelta float64
}

// runBackendAgreement sweeps the given f0 shifts on a default analytic
// system and a default SPICE system sharing stimulus, bank and capture
// (registry campaign "backends", which builds both systems itself and
// ignores the spec backend).
func runBackendAgreement(ctx context.Context, shifts []float64, eng campaign.Engine) (*BackendAgreement, error) {
	ana := core.Default()
	spc, err := core.DefaultSpice()
	if err != nil {
		return nil, err
	}
	out := &BackendAgreement{Shifts: shifts}
	out.AnalyticNDF, err = ana.SweepF0Ctx(ctx, shifts, eng)
	if err != nil {
		return nil, err
	}
	out.SpiceNDF, err = spc.SweepF0Ctx(ctx, shifts, eng)
	if err != nil {
		return nil, err
	}
	aw, err := ana.CUT.Output(ana.Stimulus, 0)
	if err != nil {
		return nil, err
	}
	sw, err := spc.CUT.Output(spc.Stimulus, 0)
	if err != nil {
		return nil, err
	}
	T := ana.Period()
	const n = 4096
	for i := 0; i < n; i++ {
		t := T * float64(i) / n
		if d := math.Abs(aw.Eval(t) - sw.Eval(t)); d > out.MaxWaveDelta {
			out.MaxWaveDelta = d
		}
	}
	return out, nil
}

// MaxNDFGap returns the largest |NDF_spice − NDF_analytic| of the sweep.
func (b *BackendAgreement) MaxNDFGap() float64 {
	worst := 0.0
	for i := range b.Shifts {
		if d := math.Abs(b.SpiceNDF[i] - b.AnalyticNDF[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// Render prints the comparison table.
func (b *BackendAgreement) Render() string {
	var s strings.Builder
	fmt.Fprintf(&s, "CUT backend agreement (golden waveform max |Δy| = %.3g V)\n", b.MaxWaveDelta)
	s.WriteString("dev%    analytic  spice     |gap|\n")
	for i := range b.Shifts {
		fmt.Fprintf(&s, "%+5.1f   %.4f    %.4f    %.4f\n",
			b.Shifts[i]*100, b.AnalyticNDF[i], b.SpiceNDF[i],
			math.Abs(b.SpiceNDF[i]-b.AnalyticNDF[i]))
	}
	return s.String()
}
