package spice

import (
	"math"
	"testing"

	"repro/internal/wave"
)

// FuzzTemplateMutation pins the trial-template engine's central claim
// under adversarial values: mutating a live CircuitTemplate in place
// must produce bit-identical samples (math.Float64bits, so a
// sign-of-zero change shows) to building a fresh circuit with the same
// values and running the generic TransientSolver. Values the
// setters reject (non-positive, non-finite) must be rejected without
// corrupting the template.
func FuzzTemplateMutation(f *testing.F) {
	f.Add(1e3, 100e-9, 2e3, 47e-9, uint8(16), true)
	f.Add(680.0, 150e-9, 3.3e3, 33e-9, uint8(40), false)
	f.Add(1e9, 82e-9, 1.8e3, 56e-9, uint8(7), false) // "open" R1
	f.Add(1e-3, 1e-15, 1e12, 1.0, uint8(1), true)    // extreme spread
	f.Add(-1.0, 100e-9, 2e3, 47e-9, uint8(16), true) // rejected value
	f.Fuzz(func(t *testing.T, r1, c1, r2, c2 float64, stepsRaw uint8, useWave bool) {
		ckt, rec := fuzzRC(1e3, 100e-9, 2e3, 47e-9)
		tmpl, err := NewCircuitTemplate(ckt)
		if err != nil {
			t.Fatalf("baseline template: %v", err)
		}
		// In-place mutation. A rejected value must leave the template on
		// its previous (valid) circuit, so later trials still run.
		ok := tmpl.SetResistance("R1", r1) == nil &&
			tmpl.SetCapacitance("C1", c1) == nil &&
			tmpl.SetResistance("R2", r2) == nil &&
			tmpl.SetCapacitance("C2", c2) == nil
		stim := wave.Sine{Amp: 0.4, Freq: 5e3, Offset: 0.5}
		if useWave {
			if err := tmpl.SetVSourceWaveform("V1", stim); err != nil {
				t.Fatalf("set waveform: %v", err)
			}
		}
		steps := 1 + int(stepsRaw)%64
		dur := 4e-4
		out := make([]float64, steps+1)
		if err := tmpl.RunTrial(Trial{Dur: dur, Steps: steps, Record: rec, Start: 0, Out: out}); err != nil {
			// Both paths must agree on failure too, but a template that
			// cannot solve (e.g. singular after mutation) has nothing to
			// compare; the rebuild check below only runs on success.
			return
		}
		if !ok {
			// Rejected mutations: the trial above ran on the last valid
			// values; nothing further to compare against the fuzzed ones.
			return
		}
		fresh, node := fuzzRC(r1, c1, r2, c2)
		if useWave {
			fresh.FindElement("V1").(*VSource).SetWaveform(stim)
		}
		want := make([]float64, steps+1)
		err = NewTransientSolver(fresh, false).Run(dur, steps, func(k int, _ float64, sol *Solution) {
			want[k] = sol.VoltageAt(node)
		})
		if err != nil {
			t.Fatalf("rebuild run failed where template succeeded: %v", err)
		}
		for k := range want {
			if math.Float64bits(out[k]) != math.Float64bits(want[k]) {
				t.Fatalf("step %d: template %v, rebuild %v (r1=%v c1=%v r2=%v c2=%v steps=%d wave=%v)",
					k, out[k], want[k], r1, c1, r2, c2, steps, useWave)
			}
		}
	})
}

// fuzzRC builds the two-stage RC ladder V1 → R1 → C1 → R2 → C2 and
// returns it with its output node.
func fuzzRC(r1, c1, r2, c2 float64) (*Circuit, NodeID) {
	c := New()
	in, a, out := c.Node("in"), c.Node("a"), c.Node("out")
	c.Add(NewVSource("V1", in, Ground, 1))
	c.Add(NewResistor("R1", in, a, r1))
	c.Add(NewCapacitor("C1", a, Ground, c1))
	c.Add(NewResistor("R2", a, out, r2))
	c.Add(NewCapacitor("C2", out, Ground, c2))
	return c, out
}
