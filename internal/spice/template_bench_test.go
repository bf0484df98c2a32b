package spice_test

import (
	"testing"

	"repro/internal/spice"
	"repro/internal/wave"
)

// BenchmarkTemplateTrialSequential times warm template trials back to
// back, cycling over four templates of the two-stage test circuit.

const benchTrialSteps = 4096

func benchTemplates(b *testing.B, n int) ([]*spice.CircuitTemplate, spice.NodeID) {
	b.Helper()
	stim, err := wave.NewMultitone(0.5, 5e3, []int{1, 2, 3},
		[]float64{0.22, 0.13, 0.08}, []float64{0, 0.4, 1.1})
	if err != nil {
		b.Fatal(err)
	}
	v := benchValues{r1: 1e3, c1: 100e-9, r2: 2e3, c2: 47e-9, gain: 2}
	ts := make([]*spice.CircuitTemplate, n)
	var out spice.NodeID
	for i := range ts {
		var ckt *spice.Circuit
		ckt, out = buildTestCircuit(v, stim)
		tmpl, err := spice.NewCircuitTemplate(ckt, spice.Options{Trapezoid: true})
		if err != nil {
			b.Fatal(err)
		}
		ts[i] = tmpl
	}
	return ts, out
}

func BenchmarkTemplateTrialSequential(b *testing.B) {
	ts, node := benchTemplates(b, 4)
	out := make([]float64, 64)
	trial := spice.Trial{Dur: 8e-4, Steps: benchTrialSteps, Record: node, Start: benchTrialSteps - len(out), Out: out}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tmpl := ts[i%len(ts)]
		if err := tmpl.RunTrial(trial); err != nil {
			b.Fatal(err)
		}
	}
}
