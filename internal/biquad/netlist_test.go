package biquad

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/spice"
	"repro/internal/wave"
)

func paperComponents(t *testing.T) Components {
	t.Helper()
	comps, err := DesignTowThomas(Params{F0: 10e3, Q: 0.9, Gain: 1}, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	return comps
}

func TestNetlistBuilds(t *testing.T) {
	comps := paperComponents(t)
	ckt, nodes, err := comps.Netlist()
	if err != nil {
		t.Fatal(err)
	}
	if nodes.LP != "lp" || nodes.BP != "bp" || nodes.In != "in" {
		t.Fatalf("node names: %+v", nodes)
	}
	if ckt.FindElement("VIN") == nil || ckt.FindElement("EA3") == nil {
		t.Fatal("netlist incomplete")
	}
	if _, _, err := (Components{}).Netlist(); err == nil {
		t.Fatal("invalid components accepted")
	}
}

func TestCircuitLPMatchesBehaviouralTF(t *testing.T) {
	comps := paperComponents(t)
	f, err := New(Params{F0: 10e3, Q: 0.9, Gain: 1})
	if err != nil {
		t.Fatal(err)
	}
	freqs := []float64{100, 1e3, 5e3, 10e3, 15e3, 30e3, 100e3}
	mags, err := comps.CircuitResponse("lp", freqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, fr := range freqs {
		want := cmplx.Abs(f.Response(fr))
		if math.Abs(mags[i]-want) > 1e-3*want+1e-6 {
			t.Fatalf("|H_LP(%g)| circuit %v vs behavioural %v", fr, mags[i], want)
		}
	}
}

func TestCircuitBPMatchesTheory(t *testing.T) {
	comps := paperComponents(t)
	// |H_BP(s)| = ω·RC · |H_LP(s)|; at f0 that equals Q·Gain = 0.9.
	mags, err := comps.CircuitResponse("bp", []float64{10e3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mags[0]-0.9) > 1e-3 {
		t.Fatalf("|H_BP(f0)| = %v, want 0.9", mags[0])
	}
}

func TestCircuitResponseValidation(t *testing.T) {
	comps := paperComponents(t)
	if _, err := comps.CircuitResponse("nosuch", []float64{1e3}); err == nil {
		t.Fatal("bad node accepted")
	}
}

// TestCircuitTransientMatchesODE checks the production transient engine
// against physics: the realized circuit, driven with one tone through a
// spice.CircuitTemplate, must settle onto the behavioural RK4
// integration of the filter ODE.
func TestCircuitTransientMatchesODE(t *testing.T) {
	comps := paperComponents(t)
	ckt, nodes, err := comps.Netlist()
	if err != nil {
		t.Fatal(err)
	}
	stim := wave.Sine{Amp: 0.2, Freq: 8e3}
	tmpl, err := spice.NewCircuitTemplate(ckt)
	if err != nil {
		t.Fatal(err)
	}
	if err := tmpl.SetVSourceWaveform("VIN", stim); err != nil {
		t.Fatal(err)
	}
	dur := 1.5e-3 // several settling time constants
	steps := 6000
	lp := make([]float64, steps+1)
	if err := tmpl.RunTrial(spice.Trial{Dur: dur, Steps: steps, Record: ckt.Node(nodes.LP), Out: lp}); err != nil {
		t.Fatal(err)
	}
	f, err := New(Params{F0: 10e3, Q: 0.9, Gain: 1})
	if err != nil {
		t.Fatal(err)
	}
	ode := f.Transient(stim, dur, dur/float64(steps))
	// Compare the final 20% of both records (steady state), allowing a
	// small tolerance for the different integrators.
	start := int(0.8 * float64(steps))
	worst := 0.0
	for i := start; i < steps; i++ {
		d := math.Abs(lp[i] - ode.V[i])
		if d > worst {
			worst = d
		}
	}
	if worst > 5e-3 {
		t.Fatalf("circuit vs ODE steady-state mismatch %v", worst)
	}
}

func TestFaultyCircuitShiftsCutoff(t *testing.T) {
	comps := paperComponents(t)
	faulty := Fault{Kind: FaultParametric, Target: TargetC, Frac: -1.0 / 11}.Apply(comps)
	// The faulty circuit's |H| at 14 kHz should exceed the nominal one
	// (f0 moved up to 11 kHz).
	freqs := []float64{14e3}
	nom, err := comps.CircuitResponse("lp", freqs)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := faulty.CircuitResponse("lp", freqs)
	if err != nil {
		t.Fatal(err)
	}
	if bad[0] <= nom[0] {
		t.Fatalf("f0-up fault should raise |H(14k)|: %v vs %v", bad[0], nom[0])
	}
}
