package spice

import (
	"math"
	"testing"

	"repro/internal/mos"
	"repro/internal/wave"
)

func mosDevice() mos.Device {
	return mos.NewDevice("M1", 1800, 180, mos.Default65nmNMOS())
}

// rcNetlist builds a driven RC low-pass: V1 -> R1 -> out -> C1 -> gnd.
func rcNetlist(w wave.Waveform) *Circuit {
	c := New()
	in, out := c.Node("in"), c.Node("out")
	if w != nil {
		c.Add(NewVSourceWave("V1", in, Ground, w))
	} else {
		c.Add(NewVSource("V1", in, Ground, 1))
	}
	c.Add(NewResistor("R1", in, out, 1e3))
	c.Add(NewCapacitor("C1", out, Ground, 1e-6))
	return c
}

// TestNonPhysicalElementFailsLoudly pins the panic-free misuse
// contract: a programmatically constructed circuit with a non-positive
// resistance is registered without panicking, and every analysis on it
// reports the recorded element error instead of solving garbage.
func TestNonPhysicalElementFailsLoudly(t *testing.T) {
	c := New()
	in := c.Node("in")
	c.Add(NewVSource("V1", in, Ground, 1))
	c.Add(NewResistor("R1", in, Ground, -1e3))
	if err := c.Validate(); err == nil {
		t.Fatal("negative resistance not recorded")
	}
	if _, err := DCOperatingPoint(c); err == nil {
		t.Fatal("DC analysis solved a circuit with a negative resistance")
	}
	if err := NewTransientSolver(c, false).Run(1e-3, 10, nil); err == nil {
		t.Fatal("transient solved a circuit with a negative resistance")
	}
	c2 := New()
	n := c2.Node("n")
	c2.Add(NewISource("I1", Ground, n, 1e-3))
	c2.Add(NewCapacitor("C1", n, Ground, math.NaN()))
	if _, err := DCOperatingPoint(c2); err == nil {
		t.Fatal("NaN capacitance accepted")
	}
}

func TestCircuitLinearDetection(t *testing.T) {
	if !rcNetlist(nil).Linear() {
		t.Fatal("RC netlist not detected as linear")
	}
	c := rcNetlist(nil)
	d := c.Node("d")
	c.Add(NewMOSFET("M1", d, c.Node("in"), Ground, mosDevice()))
	if c.Linear() {
		t.Fatal("MOSFET circuit detected as linear")
	}
	if !NewTransientSolver(rcNetlist(nil), false).Linear() {
		t.Fatal("fast path inactive on a linear circuit")
	}
	if NewTransientSolver(rcNetlist(nil), true).Linear() {
		t.Fatal("the newton argument did not disable the fast path")
	}
}

// TestLinearFastPathBitIdenticalToNewton pins the fast path's contract:
// on a linear circuit the single-factorization path reproduces the
// per-step Newton baseline bit for bit (the Newton iteration on a linear
// system converges onto exactly the same LU solution).
func TestLinearFastPathBitIdenticalToNewton(t *testing.T) {
	stim := wave.Sine{Amp: 0.5, Freq: 1e3, Offset: 0.2}
	run := func(newton bool) []float64 {
		c := rcNetlist(stim)
		ts := NewTransientSolver(c, newton)
		if ts.Linear() == newton {
			t.Fatalf("fast path state wrong (newton=%v)", newton)
		}
		out := c.Node("out")
		var vs []float64
		if err := ts.Run(5e-3, 2000, func(k int, tt float64, sol *Solution) {
			vs = append(vs, sol.VoltageAt(out))
		}); err != nil {
			t.Fatal(err)
		}
		return vs
	}
	fast, newton := run(false), run(true)
	if len(fast) != 2001 || len(newton) != 2001 {
		t.Fatalf("step counts: fast %d, newton %d", len(fast), len(newton))
	}
	for i := range fast {
		if fast[i] != newton[i] {
			t.Fatalf("step %d diverges: fast %v != newton %v", i, fast[i], newton[i])
		}
	}
}

// TestTransientSolverRepeatedRunsStartFromRest pins resetDynamicState:
// back-to-back Runs on one solver must be identical (capacitor companion
// state from the previous run cleared).
func TestTransientSolverRepeatedRunsStartFromRest(t *testing.T) {
	stim := wave.Sine{Amp: 1, Freq: 2e3}
	c := rcNetlist(stim)
	ts := NewTransientSolver(c, false)
	out := c.Node("out")
	capture := func() []float64 {
		var vs []float64
		if err := ts.Run(1e-3, 400, func(k int, tt float64, sol *Solution) {
			vs = append(vs, sol.VoltageAt(out))
		}); err != nil {
			t.Fatal(err)
		}
		return vs
	}
	a, b := capture(), capture()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("step %d: repeated Run diverges: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestTransientMatchesAnalyticRC checks the streamed fast-path solution
// against the closed-form RC step response (the source steps at t=0+ so
// the DC operating point starts the capacitor discharged).
func TestTransientMatchesAnalyticRC(t *testing.T) {
	c := New()
	in, out := c.Node("in"), c.Node("out")
	c.Add(NewVSourceWave("V1", in, Ground, stepWave{at: 0, lo: 0, hi: 1}))
	c.Add(NewResistor("R1", in, out, 1e3))
	c.Add(NewCapacitor("C1", out, Ground, 1e-6))
	ts := NewTransientSolver(c, false)
	if !ts.Linear() {
		t.Fatal("expected fast path")
	}
	worst := 0.0
	err := ts.Run(5e-3, 5000, func(k int, tt float64, sol *Solution) {
		want := 1 - math.Exp(-tt/1e-3)
		if d := math.Abs(sol.VoltageAt(out) - want); d > worst {
			worst = d
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if worst > 2e-3 {
		t.Fatalf("worst error vs analytic RC charge = %v", worst)
	}
}

// TestDCOperatingPointWSReuse solves the same nonlinear circuit twice
// through a shared workspace with continuation and checks both
// solutions agree with the cold solve.
func TestDCOperatingPointWSReuse(t *testing.T) {
	build := func() *Circuit {
		c := New()
		vdd, d := c.Node("vdd"), c.Node("d")
		c.Add(NewVSource("VDD", vdd, Ground, 1.2))
		c.Add(NewResistor("RD", vdd, d, 20e3))
		g := c.Node("g")
		c.Add(NewVSource("VG", g, Ground, 0.8))
		c.Add(NewMOSFET("M1", d, g, Ground, mosDevice()))
		return c
	}
	cold, err := DCOperatingPoint(build())
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace()
	var prev *Solution
	for i := 0; i < 3; i++ {
		sol, err := DCOperatingPointWS(build(), prev, ws)
		if err != nil {
			t.Fatal(err)
		}
		vCold, _ := cold.Voltage("d")
		vWS, _ := sol.Voltage("d")
		if math.Abs(vCold-vWS) > 1e-9 {
			t.Fatalf("iteration %d: WS solve %v != cold solve %v", i, vWS, vCold)
		}
		prev = sol
	}
}
