package spice

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mos"
	"repro/internal/num"
	"repro/internal/wave"
)

func TestVoltageDivider(t *testing.T) {
	c := New()
	in, mid := c.Node("in"), c.Node("mid")
	c.Add(NewVSource("V1", in, Ground, 1.0))
	c.Add(NewResistor("R1", in, mid, 1e3))
	c.Add(NewResistor("R2", mid, Ground, 1e3))
	sol, err := DCOperatingPoint(c)
	if err != nil {
		t.Fatal(err)
	}
	v, err := sol.Voltage("mid")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-0.5) > 1e-9 {
		t.Fatalf("divider = %v, want 0.5", v)
	}
}

func TestBranchCurrent(t *testing.T) {
	c := New()
	in := c.Node("in")
	v1 := NewVSource("V1", in, Ground, 2.0)
	c.Add(v1)
	c.Add(NewResistor("R1", in, Ground, 1e3))
	sol, err := DCOperatingPoint(c)
	if err != nil {
		t.Fatal(err)
	}
	i := sol.X[v1.branch]
	// 2 mA flows out of the source's + terminal into R1, so the branch
	// current (flowing + -> - through the source) is -2 mA.
	if math.Abs(i+2e-3) > 1e-9 {
		t.Fatalf("branch current = %v, want -2mA", i)
	}
}

func TestCurrentSource(t *testing.T) {
	c := New()
	n1 := c.Node("n1")
	c.Add(NewISource("I1", Ground, n1, 1e-3))
	c.Add(NewResistor("R1", n1, Ground, 1e3))
	sol, err := DCOperatingPoint(c)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := sol.Voltage("n1")
	if math.Abs(v-1.0) > 1e-9 {
		t.Fatalf("V(n1) = %v, want 1.0", v)
	}
}

func TestVCVS(t *testing.T) {
	c := New()
	in, out := c.Node("in"), c.Node("out")
	c.Add(NewVSource("V1", in, Ground, 0.1))
	c.Add(NewVCVS("E1", out, Ground, in, Ground, 10))
	c.Add(NewResistor("RL", out, Ground, 1e3))
	sol, err := DCOperatingPoint(c)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := sol.Voltage("out")
	if math.Abs(v-1.0) > 1e-9 {
		t.Fatalf("VCVS out = %v, want 1.0", v)
	}
}

func TestUnknownNodeVoltage(t *testing.T) {
	c := New()
	n := c.Node("a")
	c.Add(NewVSource("V1", n, Ground, 1))
	c.Add(NewResistor("R1", n, Ground, 1))
	sol, err := DCOperatingPoint(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sol.Voltage("nope"); err == nil {
		t.Fatal("expected error for unknown node")
	}
	if v, err := sol.Voltage("0"); err != nil || v != 0 {
		t.Fatal("ground voltage must be 0")
	}
}

// nmosTestCircuit builds VDD --R--> drain, gate at vg, source grounded.
func nmosTestCircuit(vg, vdd, r float64) (*Circuit, mos.Device) {
	c := New()
	d := c.Node("d")
	g := c.Node("g")
	vddN := c.Node("vdd")
	dev := mos.NewDevice("M1", 1800, 180, mos.Default65nmNMOS())
	c.Add(NewVSource("VDD", vddN, Ground, vdd))
	c.Add(NewVSource("VG", g, Ground, vg))
	c.Add(NewResistor("RD", vddN, d, r))
	c.Add(NewMOSFET("M1", d, g, Ground, dev))
	return c, dev
}

func TestNMOSCommonSourceMatchesModel(t *testing.T) {
	vg, vdd, r := 0.7, 1.2, 10e3
	c, dev := nmosTestCircuit(vg, vdd, r)
	sol, err := DCOperatingPoint(c)
	if err != nil {
		t.Fatal(err)
	}
	vd, _ := sol.Voltage("d")
	// Independent solution of (vdd - vd)/r = ID(vg, vd) by bisection.
	want, err := num.Bisect(func(v float64) float64 {
		return (vdd-v)/r - dev.Eval(vg, v).ID
	}, 0, vdd, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vd-want) > 1e-6 {
		t.Fatalf("drain voltage = %v, want %v", vd, want)
	}
}

func TestNMOSCutoffPullsDrainHigh(t *testing.T) {
	c, _ := nmosTestCircuit(0.0, 1.2, 10e3)
	sol, err := DCOperatingPoint(c)
	if err != nil {
		t.Fatal(err)
	}
	vd, _ := sol.Voltage("d")
	if vd < 1.19 {
		t.Fatalf("cutoff drain = %v, want ~1.2", vd)
	}
}

func TestPMOSCommonSource(t *testing.T) {
	// VDD at source, gate low -> PMOS on, pulls drain toward VDD through
	// the channel against a grounding resistor.
	c := New()
	vddN := c.Node("vdd")
	d := c.Node("d")
	g := c.Node("g")
	dev := mos.NewDevice("M1", 3600, 180, mos.Default65nmPMOS())
	c.Add(NewVSource("VDD", vddN, Ground, 1.2))
	c.Add(NewVSource("VG", g, Ground, 0.0))
	c.Add(NewMOSFET("M1", d, g, vddN, dev))
	c.Add(NewResistor("RL", d, Ground, 20e3))
	sol, err := DCOperatingPoint(c)
	if err != nil {
		t.Fatal(err)
	}
	vd, _ := sol.Voltage("d")
	// Cross-check against the model: vd/RL = ID(vsg=1.2, vsd=1.2-vd).
	want, err := num.Bisect(func(v float64) float64 {
		return v/20e3 - dev.Eval(1.2, 1.2-v).ID
	}, 0, 1.2, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vd-want) > 1e-6 {
		t.Fatalf("PMOS drain = %v, want %v", vd, want)
	}
	if vd < 0.6 {
		t.Fatalf("PMOS with full drive should pull drain above mid-rail, got %v", vd)
	}
}

func TestDiodeConnectedNMOS(t *testing.T) {
	// Diode-connected device biased by a current source: VGS settles where
	// ID equals the forced current.
	c := New()
	d := c.Node("d")
	dev := mos.NewDevice("M1", 1800, 180, mos.Default65nmNMOS())
	c.Add(NewMOSFET("M1", d, d, Ground, dev))
	c.Add(NewISource("IB", Ground, d, 50e-6))
	sol, err := DCOperatingPoint(c)
	if err != nil {
		t.Fatal(err)
	}
	vd, _ := sol.Voltage("d")
	if math.Abs(dev.Eval(vd, vd).ID-50e-6) > 1e-9 {
		t.Fatalf("diode-connected bias inconsistent: V=%v I=%v", vd, dev.Eval(vd, vd).ID)
	}
}

func TestMonitorNetlistText(t *testing.T) {
	// The Fig. 2 monitor (pseudo-differential current comparator), one
	// netlist line per row, builds and solves with both outputs inside
	// the rails.
	sources := []struct {
		name, node string
		volts      float64
	}{
		{"VDD", "vdd", 1.2},
		{"V1", "g1", 0.5},
		{"V2", "g2", 0.2},
		{"V3", "g3", 0.5},
		{"V4", "g4", 0.6},
	}
	nmos, pmos := mos.Default65nmNMOS(), mos.Default65nmPMOS()
	fets := []struct {
		name, d, g, s string
		p             mos.Params
		wNm, lNm      float64
	}{
		{"M1", "out1", "g1", "0", nmos, 3000, 180},
		{"M2", "out1", "g2", "0", nmos, 600, 180},
		{"M3", "out2", "g3", "0", nmos, 600, 180},
		{"M4", "out2", "g4", "0", nmos, 3000, 180},
		{"M5", "out1", "out1", "vdd", pmos, 2000, 180},
		{"M6", "out1", "out2", "vdd", pmos, 2000, 180},
		{"M7", "out2", "out1", "vdd", pmos, 2000, 180},
		{"M8", "out2", "out2", "vdd", pmos, 2000, 180},
	}
	c := New()
	for _, v := range sources {
		c.Add(NewVSource(v.name, c.Node(v.node), Ground, v.volts))
	}
	for _, m := range fets {
		dev := mos.NewDevice(m.name, m.wNm, m.lNm, m.p)
		c.Add(NewMOSFET(m.name, c.Node(m.d), c.Node(m.g), c.Node(m.s), dev))
	}
	if got, want := c.NumNodes(), 7; got != want {
		t.Fatalf("nodes = %d, want %d", got, want)
	}
	sol, err := DCOperatingPoint(c)
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := sol.Voltage("out1")
	v2, _ := sol.Voltage("out2")
	for _, v := range []float64{v1, v2} {
		if v < 0 || v > 1.2 {
			t.Fatalf("monitor output rail violation: out1=%v out2=%v", v1, v2)
		}
	}
}

// TransientResult holds a fixed-step transient analysis.
type TransientResult struct {
	Time      []float64
	Solutions []*Solution
}

// VoltageSeries extracts one node's waveform from the result.
func (tr *TransientResult) VoltageSeries(node string) ([]float64, error) {
	out := make([]float64, len(tr.Solutions))
	for i, s := range tr.Solutions {
		v, err := s.Voltage(node)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// Transient runs a fixed-timestep transient analysis over [0, dur] with
// the given number of steps, materializing every solution. The initial
// condition is the DC operating point at t = 0.
func Transient(c *Circuit, dur float64, steps int) (*TransientResult, error) {
	ts := NewTransientSolver(c, false)
	res := &TransientResult{
		Time:      make([]float64, 0, steps+1),
		Solutions: make([]*Solution, 0, steps+1),
	}
	err := ts.Run(dur, steps, func(k int, t float64, sol *Solution) {
		res.Time = append(res.Time, t)
		res.Solutions = append(res.Solutions, &Solution{circuit: c, X: append([]float64(nil), sol.X...)})
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

func TestTransientRCCharge(t *testing.T) {
	c := New()
	in, out := c.Node("in"), c.Node("out")
	c.Add(NewVSource("V1", in, Ground, 1.0))
	c.Add(NewResistor("R1", in, out, 1e3))
	c.Add(NewCapacitor("C1", out, Ground, 1e-6))
	// τ = 1 ms. NOTE: the DC operating point pre-charges the cap to
	// 1 V (steady state), so force the interesting case with a step:
	// start the source at 0 via a waveform that jumps at t=0+.
	vs := c.FindElement("V1").(*VSource)
	*vs = *NewVSourceWave("V1", in, Ground, stepWave{at: 0, lo: 0, hi: 1})
	res, err := Transient(c, 5e-3, 2000)
	if err != nil {
		t.Fatal(err)
	}
	vout, err := res.VoltageSeries("out")
	if err != nil {
		t.Fatal(err)
	}
	// Compare to analytic 1-exp(-t/τ) at a few points.
	for _, idx := range []int{400, 1000, 2000} {
		tt := res.Time[idx]
		want := 1 - math.Exp(-tt/1e-3)
		if math.Abs(vout[idx]-want) > 5e-3 {
			t.Fatalf("RC charge at t=%v: %v, want %v", tt, vout[idx], want)
		}
	}
}

// stepWave is 0 before `at`, hi after (used to exercise transients).
type stepWave struct{ at, lo, hi float64 }

func (s stepWave) Eval(t float64) float64 {
	if t > s.at {
		return s.hi
	}
	return s.lo
}
func (s stepWave) Period() float64 { return 0 }

func TestTransientRCLowpassSine(t *testing.T) {
	// 1 kHz sine through RC with f_c = 1/(2πRC) ≈ 159 Hz: expect strong
	// attenuation matching |H| = 1/sqrt(1+(ωRC)^2).
	c := New()
	in, out := c.Node("in"), c.Node("out")
	c.Add(NewVSourceWave("V1", in, Ground, wave.Sine{Amp: 1, Freq: 1000}))
	c.Add(NewResistor("R1", in, out, 1e3))
	c.Add(NewCapacitor("C1", out, Ground, 1e-6))
	res, err := Transient(c, 10e-3, 4000)
	if err != nil {
		t.Fatal(err)
	}
	vout, _ := res.VoltageSeries("out")
	// Measure amplitude over the last 2 periods (steady state).
	tail := vout[2000:]
	amp := 0.0
	for _, v := range tail {
		if math.Abs(v) > amp {
			amp = math.Abs(v)
		}
	}
	wrc := 2 * math.Pi * 1000 * 1e-3
	want := 1 / math.Sqrt(1+wrc*wrc)
	if math.Abs(amp-want) > 0.03*want+0.005 {
		t.Fatalf("lowpass amplitude = %v, want %v", amp, want)
	}
}

func TestTransientRejectsBadSteps(t *testing.T) {
	c := New()
	n := c.Node("a")
	c.Add(NewVSource("V1", n, Ground, 1))
	c.Add(NewResistor("R1", n, Ground, 1))
	if _, err := Transient(c, 1e-3, 0); err == nil {
		t.Fatal("expected error for zero steps")
	}
}

func TestFloatingNodeHandledByGmin(t *testing.T) {
	// A node connected only through a capacitor is floating at DC; gmin
	// must keep the matrix solvable.
	c := New()
	a, b := c.Node("a"), c.Node("b")
	c.Add(NewVSource("V1", a, Ground, 1))
	c.Add(NewCapacitor("C1", a, b, 1e-9))
	c.Add(NewResistor("R1", a, Ground, 1e3))
	if _, err := DCOperatingPoint(c); err != nil {
		t.Fatalf("floating node broke DC solve: %v", err)
	}
	_ = b
}

// Property: N-stage equal-resistor ladder divides linearly.
func TestResistorLadderProperty(t *testing.T) {
	prop := func(stagesRaw uint8) bool {
		stages := 2 + int(stagesRaw%8)
		c := New()
		top := c.Node("n0")
		c.Add(NewVSource("V1", top, Ground, 1.0))
		prev := top
		for i := 1; i <= stages; i++ {
			var next NodeID = Ground
			if i < stages {
				next = c.Node(nodeName(i))
			}
			c.Add(NewResistor(nodeName(100+i), prev, next, 1e3))
			prev = next
		}
		sol, err := DCOperatingPoint(c)
		if err != nil {
			return false
		}
		for i := 1; i < stages; i++ {
			v, err := sol.Voltage(nodeName(i))
			if err != nil {
				return false
			}
			want := 1 - float64(i)/float64(stages)
			if math.Abs(v-want) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func nodeName(i int) string {
	return "n" + string(rune('0'+i/10)) + string(rune('0'+i%10))
}

func TestTransientNMOSInverterDischarge(t *testing.T) {
	// Capacitive load on a common-source stage: when the gate steps
	// high the NMOS discharges the load toward its resistive-divider
	// operating point; the trajectory must be monotone and settle to
	// the DC solution.
	c := New()
	d := c.Node("d")
	g := c.Node("g")
	vddN := c.Node("vdd")
	dev := mos.NewDevice("M1", 3600, 180, mos.Default65nmNMOS())
	c.Add(NewVSource("VDD", vddN, Ground, 1.2))
	c.Add(NewVSourceWave("VG", g, Ground, stepWave{at: 1e-9, lo: 0, hi: 1.0}))
	c.Add(NewResistor("RD", vddN, d, 20e3))
	c.Add(NewCapacitor("CL", d, Ground, 1e-12))
	c.Add(NewMOSFET("M1", d, g, Ground, dev))
	res, err := Transient(c, 2e-7, 4000)
	if err != nil {
		t.Fatal(err)
	}
	vd, err := res.VoltageSeries("d")
	if err != nil {
		t.Fatal(err)
	}
	// Initial OP: gate low -> drain at VDD.
	if vd[0] < 1.19 {
		t.Fatalf("initial drain = %v, want ~1.2", vd[0])
	}
	// Final value matches an independent root solve of the same device:
	// (1.2 − v)/R = I_D(1.0, v).
	want, err := num.Bisect(func(v float64) float64 {
		return (1.2-v)/20e3 - dev.Eval(1.0, v).ID
	}, 0, 1.2, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	got := vd[len(vd)-1]
	if math.Abs(got-want) > 2e-3 {
		t.Fatalf("transient settles at %v, DC says %v", got, want)
	}
	// Monotone discharge after the step.
	for i := 200; i < len(vd)-1; i++ {
		if vd[i+1] > vd[i]+1e-6 {
			t.Fatalf("discharge not monotone at step %d", i)
		}
	}
}

func TestDCOperatingPointUsesFallbacks(t *testing.T) {
	// A cross-coupled NMOS latch with no helpful initial guess exercises
	// the gmin/source stepping paths; any self-consistent solution is
	// acceptable, the solver just must not fail.
	c := New()
	a, b := c.Node("a"), c.Node("b")
	vddN := c.Node("vdd")
	dev := mos.NewDevice("M", 1800, 180, mos.Default65nmNMOS())
	c.Add(NewVSource("VDD", vddN, Ground, 1.2))
	c.Add(NewResistor("RA", vddN, a, 20e3))
	c.Add(NewResistor("RB", vddN, b, 20e3))
	c.Add(NewMOSFET("MA", a, b, Ground, dev))
	c.Add(NewMOSFET("MB", b, a, Ground, dev))
	sol, err := DCOperatingPoint(c)
	if err != nil {
		t.Fatal(err)
	}
	va, _ := sol.Voltage("a")
	vb, _ := sol.Voltage("b")
	for _, v := range []float64{va, vb} {
		if v < -0.01 || v > 1.21 {
			t.Fatalf("latch node out of rails: a=%v b=%v", va, vb)
		}
	}
	// KCL check at node a: resistor current equals MA drain current.
	ir := (1.2 - va) / 20e3
	id := dev.Eval(vb, va).ID
	if math.Abs(ir-id) > 1e-8 {
		t.Fatalf("KCL violated at a: iR=%v iD=%v", ir, id)
	}
}
