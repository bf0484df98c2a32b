package spice_test

import (
	"math"
	"testing"

	"repro/internal/mos"
	"repro/internal/spice"
	"repro/internal/wave"
)

// benchValues is one value assignment for the two-stage RC test circuit.
type benchValues struct {
	r1, c1, r2, c2, gain float64
}

// buildTestCircuit assembles a two-stage filter exercising every element
// kind the template compiles: a waveform-driven VSource, resistors,
// capacitors, a VCVS and a DC ISource.
func buildTestCircuit(v benchValues, stim wave.Waveform) (*spice.Circuit, spice.NodeID) {
	c := spice.New()
	in := c.Node("in")
	a := c.Node("a")
	b := c.Node("b")
	out := c.Node("out")
	c.Add(spice.NewVSourceWave("VIN", in, spice.Ground, stim))
	c.Add(spice.NewResistor("R1", in, a, v.r1))
	c.Add(spice.NewCapacitor("C1", a, spice.Ground, v.c1))
	c.Add(spice.NewVCVS("E1", b, spice.Ground, a, spice.Ground, v.gain))
	c.Add(spice.NewResistor("R2", b, out, v.r2))
	c.Add(spice.NewCapacitor("C2", out, spice.Ground, v.c2))
	c.Add(spice.NewISource("I1", spice.Ground, out, 1e-6))
	return c, out
}

// rebuildRun is the reference path: fresh circuit, generic
// TransientSolver.Run, samples collected through the callback.
func rebuildRun(t *testing.T, v benchValues, stim wave.Waveform, dur float64, steps int) []float64 {
	t.Helper()
	ckt, out := buildTestCircuit(v, stim)
	ts := spice.NewTransientSolver(ckt, false)
	samples := make([]float64, steps+1)
	err := ts.Run(dur, steps, func(k int, _ float64, sol *spice.Solution) {
		samples[k] = sol.VoltageAt(out)
	})
	if err != nil {
		t.Fatalf("rebuild run: %v", err)
	}
	return samples
}

// applyValues mutates a live template to the given value set in place.
func applyValues(t *testing.T, tmpl *spice.CircuitTemplate, v benchValues) {
	t.Helper()
	if err := tmpl.SetResistance("R1", v.r1); err != nil {
		t.Fatal(err)
	}
	if err := tmpl.SetResistance("R2", v.r2); err != nil {
		t.Fatal(err)
	}
	if err := tmpl.SetCapacitance("C1", v.c1); err != nil {
		t.Fatal(err)
	}
	if err := tmpl.SetCapacitance("C2", v.c2); err != nil {
		t.Fatal(err)
	}
}

func testStimulus(t *testing.T) *wave.Multitone {
	t.Helper()
	stim, err := wave.NewMultitone(0.5, 5e3, []int{1, 2, 3},
		[]float64{0.22, 0.13, 0.08}, []float64{0, 0.4, 1.1})
	if err != nil {
		t.Fatal(err)
	}
	return stim
}

// TestCircuitTemplateMatchesRebuild pins the template engine's core
// contract: a trial on a value-mutated template produces bit-identical
// samples (math.Float64bits, so a sign-of-zero change shows) to
// rebuilding the circuit and running the generic TransientSolver,
// across trials with different durations (distinct dt / tick tables).
func TestCircuitTemplateMatchesRebuild(t *testing.T) {
	stim := testStimulus(t)
	T := stim.Period()
	valueSets := []benchValues{
		{r1: 1e3, c1: 100e-9, r2: 2e3, c2: 47e-9, gain: 2},
		{r1: 1.21e3, c1: 82e-9, r2: 1.8e3, c2: 56e-9, gain: 2},
		{r1: 680, c1: 150e-9, r2: 3.3e3, c2: 33e-9, gain: 2},
		{r1: 1e9, c1: 100e-9, r2: 2e3, c2: 47e-9, gain: 2}, // "open" R1
	}
	ckt, out := buildTestCircuit(valueSets[0], stim)
	tmpl, err := spice.NewCircuitTemplate(ckt)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range valueSets {
		applyValues(t, tmpl, v)
		// Vary the span so consecutive trials exercise tick-table
		// extension and distinct dt keys.
		periods := 2 + i%3
		steps := periods * 128
		dur := T * float64(periods)
		got := make([]float64, steps+1)
		err := tmpl.RunTrial(spice.Trial{Dur: dur, Steps: steps, Record: out, Start: 0, Out: got})
		if err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
		want := rebuildRun(t, v, stim, dur, steps)
		for k := range want {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("set %d: step %d: template %v, rebuild %v", i, k, got[k], want[k])
			}
		}
	}
}

// TestCircuitTemplateWindowRecording checks the Start/Out windowing
// against a full recording and validates the bounds checks, the
// recorded node's included.
func TestCircuitTemplateWindowRecording(t *testing.T) {
	stim := testStimulus(t)
	v := benchValues{r1: 1e3, c1: 100e-9, r2: 2e3, c2: 47e-9, gain: 2}
	steps := 256
	dur := stim.Period() * 2
	full := rebuildRun(t, v, stim, dur, steps)

	ckt, out := buildTestCircuit(v, stim)
	tmpl, err := spice.NewCircuitTemplate(ckt)
	if err != nil {
		t.Fatal(err)
	}
	window := make([]float64, 128)
	start := 129
	if err := tmpl.RunTrial(spice.Trial{Dur: dur, Steps: steps, Record: out, Start: start, Out: window}); err != nil {
		t.Fatal(err)
	}
	for i, w := range window {
		if math.Float64bits(w) != math.Float64bits(full[start+i]) {
			t.Fatalf("window[%d] = %v, want %v", i, w, full[start+i])
		}
	}
	if err := tmpl.RunTrial(spice.Trial{Dur: dur, Steps: 10, Record: out, Start: 8, Out: window}); err == nil {
		t.Fatal("out-of-range recording window accepted")
	}
	if err := tmpl.RunTrial(spice.Trial{Dur: dur, Steps: 0, Record: out}); err == nil {
		t.Fatal("zero-step trial accepted")
	}
	for _, node := range []spice.NodeID{-2, spice.NodeID(ckt.NumNodes())} {
		if err := tmpl.RunTrial(spice.Trial{Dur: dur, Steps: steps, Record: node, Out: window}); err == nil {
			t.Fatalf("trial recording node %d of %d accepted", node, ckt.NumNodes())
		}
	}
}

// TestCircuitTemplateRunTrialsBlock runs a block of trials back to back
// on one template, mutating its values before each, and checks every
// trial against its own rebuild.
func TestCircuitTemplateRunTrialsBlock(t *testing.T) {
	stim := testStimulus(t)
	T := stim.Period()
	sets := []benchValues{
		{r1: 1e3, c1: 100e-9, r2: 2e3, c2: 47e-9, gain: 2},
		{r1: 1.5e3, c1: 68e-9, r2: 2.2e3, c2: 39e-9, gain: 2},
	}
	ckt, out := buildTestCircuit(sets[0], stim)
	tmpl, err := spice.NewCircuitTemplate(ckt)
	if err != nil {
		t.Fatal(err)
	}
	steps := 256
	results := make([][]float64, len(sets))
	for i, v := range sets {
		applyValues(t, tmpl, v)
		results[i] = make([]float64, steps+1)
		if err := tmpl.RunTrial(spice.Trial{Dur: 2 * T, Steps: steps, Record: out, Start: 0, Out: results[i]}); err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
	}
	for i, v := range sets {
		want := rebuildRun(t, v, stim, 2*T, steps)
		for k := range want {
			if math.Float64bits(results[i][k]) != math.Float64bits(want[k]) {
				t.Fatalf("trial %d step %d: %v != %v", i, k, results[i][k], want[k])
			}
		}
	}
}

// TestCircuitTemplateRejectsUnsupported checks the construction guards.
func TestCircuitTemplateRejectsUnsupported(t *testing.T) {
	c := spice.New()
	c.Add(spice.NewResistor("R1", c.Node("a"), spice.Ground, -5))
	if _, err := spice.NewCircuitTemplate(c); err == nil {
		t.Fatal("invalid circuit accepted")
	}
	ckt := spice.New()
	d, g := ckt.Node("d"), ckt.Node("g")
	ckt.Add(spice.NewVSource("V1", d, spice.Ground, 1.0))
	ckt.Add(spice.NewMOSFET("M1", d, g, spice.Ground, mos.NewDevice("M1", 1000, 65, mos.Default65nmNMOS())))
	ckt.Add(spice.NewVSource("V2", g, spice.Ground, 0.8))
	if _, err := spice.NewCircuitTemplate(ckt); err == nil {
		t.Fatal("nonlinear circuit accepted")
	}
	c2 := spice.New()
	c2.Add(spice.NewResistor("R1", c2.Node("a"), spice.Ground, 1e3))
	tmpl, err := spice.NewCircuitTemplate(c2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tmpl.SetResistance("R1", -1); err == nil {
		t.Fatal("negative resistance accepted by setter")
	}
	if err := tmpl.SetResistance("nope", 1); err == nil {
		t.Fatal("unknown resistor accepted by setter")
	}
	if err := tmpl.SetCapacitance("R1", 1e-9); err == nil {
		t.Fatal("resistor accepted as capacitor")
	}
	if err := tmpl.SetVSourceWaveform("nope", wave.DC(1)); err == nil {
		t.Fatal("unknown source accepted by setter")
	}
}

// TestSpiceTemplateTrialAllocationFree pins the hot-path allocation
// contract: a warm template trial — workspace sized, tick tables built,
// solve program compiled — allocates nothing.
func TestSpiceTemplateTrialAllocationFree(t *testing.T) {
	stim := testStimulus(t)
	v := benchValues{r1: 1e3, c1: 100e-9, r2: 2e3, c2: 47e-9, gain: 2}
	ckt, out := buildTestCircuit(v, stim)
	tmpl, err := spice.NewCircuitTemplate(ckt)
	if err != nil {
		t.Fatal(err)
	}
	steps := 256
	tr := spice.Trial{Dur: 2 * stim.Period(), Steps: steps, Record: out, Start: 0, Out: make([]float64, steps+1)}
	if err := tmpl.RunTrial(tr); err != nil {
		t.Fatal(err)
	}
	var trialErr error
	allocs := testing.AllocsPerRun(20, func() {
		if err := tmpl.RunTrial(tr); err != nil {
			trialErr = err
		}
	})
	if trialErr != nil {
		t.Fatal(trialErr)
	}
	if allocs != 0 {
		t.Fatalf("warm template trial allocates %.1f times per run, want 0", allocs)
	}
}
