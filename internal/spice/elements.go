package spice

import (
	"fmt"
	"math"

	"repro/internal/mos"
	"repro/internal/wave"
)

// Resistor is a linear two-terminal resistor.
type Resistor struct {
	name string
	P, M NodeID
	Ohms float64
}

// NewResistor creates a resistor between nodes p and m. Ohms must be
// positive and finite; a bad value never panics — Circuit.Add records it
// and every analysis on that circuit returns the error.
func NewResistor(name string, p, m NodeID, ohms float64) *Resistor {
	return &Resistor{name: name, P: p, M: m, Ohms: ohms}
}

// validate implements the Add-time element check.
func (r *Resistor) validate() error {
	if r.Ohms <= 0 || math.IsInf(r.Ohms, 0) || math.IsNaN(r.Ohms) {
		return fmt.Errorf("spice: resistor %s value %g must be positive and finite", r.name, r.Ohms)
	}
	return nil
}

// Name implements Element.
func (r *Resistor) Name() string { return r.name }

// Stamp implements Element.
func (r *Resistor) Stamp(s *Stamper) { s.AddConductance(r.P, r.M, 1/r.Ohms) }

// Capacitor is a linear capacitor. In DC analyses it is an open circuit;
// in transient analyses it stamps a trapezoidal companion model.
type Capacitor struct {
	name    string
	P, M    NodeID
	Farads  float64
	prevCur float64 // capacitor current at the previous timestep
}

// NewCapacitor creates a capacitor between nodes p and m. Farads must be
// positive and finite; like NewResistor, misuse surfaces as an analysis
// error recorded by Circuit.Add, not a panic.
func NewCapacitor(name string, p, m NodeID, farads float64) *Capacitor {
	return &Capacitor{name: name, P: p, M: m, Farads: farads}
}

// validate implements the Add-time element check.
func (c *Capacitor) validate() error {
	if c.Farads <= 0 || math.IsInf(c.Farads, 0) || math.IsNaN(c.Farads) {
		return fmt.Errorf("spice: capacitor %s value %g must be positive and finite", c.name, c.Farads)
	}
	return nil
}

// Name implements Element.
func (c *Capacitor) Name() string { return c.name }

// Stamp implements Element.
func (c *Capacitor) Stamp(s *Stamper) {
	if s.DC || s.Dt <= 0 {
		return // open circuit at DC
	}
	// Trapezoidal: i = (2C/h)(v - vPrev) - iPrev
	vPrev := s.PrevV(c.P) - s.PrevV(c.M)
	geq := 2 * c.Farads / s.Dt
	ieq := geq*vPrev + c.prevCur
	s.AddConductance(c.P, c.M, geq)
	s.AddCurrent(c.P, c.M, ieq)
}

// commitStep records the capacitor current after an accepted timestep so
// the trapezoidal companion can use it next step.
func (c *Capacitor) commitStep(x, prev []float64, dt float64) {
	vAt := func(n NodeID, vec []float64) float64 {
		if n == Ground {
			return 0
		}
		return vec[n]
	}
	v := vAt(c.P, x) - vAt(c.M, x)
	vPrev := vAt(c.P, prev) - vAt(c.M, prev)
	c.prevCur = 2*c.Farads/dt*(v-vPrev) - c.prevCur
}

// VSource is an independent voltage source, DC or waveform-driven.
type VSource struct {
	name   string
	P, M   NodeID
	src    sourceWaveform
	branch int
}

// NewVSource creates a DC voltage source.
func NewVSource(name string, p, m NodeID, volts float64) *VSource {
	return &VSource{name: name, P: p, M: m, src: sourceWaveform{dc: volts}}
}

// NewVSourceWave creates a waveform-driven voltage source. Its DC value
// (used for operating-point analyses) is the waveform at t = 0.
func NewVSourceWave(name string, p, m NodeID, w wave.Waveform) *VSource {
	return &VSource{name: name, P: p, M: m, src: sourceWaveform{dc: w.Eval(0), w: w}}
}

// Name implements Element.
func (v *VSource) Name() string { return v.name }

// SetDC changes the DC value (used by sweeps).
func (v *VSource) SetDC(volts float64) { v.src.dc = volts; v.src.w = nil }

// SetWaveform drives the source with w; the DC value used by
// operating-point analyses becomes w.Eval(0). This is how a netlist
// built for DC/AC analysis (e.g. biquad.Components.Netlist) is excited
// with the multitone stimulus for a transient run.
func (v *VSource) SetWaveform(w wave.Waveform) {
	v.src = sourceWaveform{dc: w.Eval(0), w: w}
}

func (v *VSource) setBranch(row int) { v.branch = row }

// Stamp implements Element.
func (v *VSource) Stamp(s *Stamper) {
	val := v.src.at(s.Time, s.DC) * s.SrcScale
	s.AddEntry(int(v.P), v.branch, 1)
	s.AddEntry(int(v.M), v.branch, -1)
	s.AddEntry(v.branch, int(v.P), 1)
	s.AddEntry(v.branch, int(v.M), -1)
	s.AddRHS(v.branch, val)
}

// ISource is an independent current source; current flows from node P
// through the source to node M (i.e. it injects into M... conventional
// SPICE: positive current flows from P to M through the source, so it
// *removes* current from P and injects into M).
type ISource struct {
	name string
	P, M NodeID
	src  sourceWaveform
}

// NewISource creates a DC current source.
func NewISource(name string, p, m NodeID, amps float64) *ISource {
	return &ISource{name: name, P: p, M: m, src: sourceWaveform{dc: amps}}
}

// Name implements Element.
func (i *ISource) Name() string { return i.name }

// Stamp implements Element.
func (i *ISource) Stamp(s *Stamper) {
	val := i.src.at(s.Time, s.DC) * s.SrcScale
	s.AddCurrent(i.M, i.P, val)
}

// VCVS is a voltage-controlled voltage source: V(P,M) = Gain · V(CP,CM).
// It is used to model ideal high-gain stages.
type VCVS struct {
	name   string
	P, M   NodeID
	CP, CM NodeID
	Gain   float64
	branch int
}

// NewVCVS creates a voltage-controlled voltage source.
func NewVCVS(name string, p, m, cp, cm NodeID, gain float64) *VCVS {
	return &VCVS{name: name, P: p, M: m, CP: cp, CM: cm, Gain: gain}
}

// Name implements Element.
func (e *VCVS) Name() string { return e.name }

func (e *VCVS) setBranch(row int) { e.branch = row }

// Stamp implements Element.
func (e *VCVS) Stamp(s *Stamper) {
	s.AddEntry(int(e.P), e.branch, 1)
	s.AddEntry(int(e.M), e.branch, -1)
	s.AddEntry(e.branch, int(e.P), 1)
	s.AddEntry(e.branch, int(e.M), -1)
	s.AddEntry(e.branch, int(e.CP), -e.Gain)
	s.AddEntry(e.branch, int(e.CM), e.Gain)
}

// MOSFET is a three-terminal (bulk tied to source) transistor using the
// internal/mos behavioural model.
type MOSFET struct {
	name    string
	D, G, S NodeID
	Dev     mos.Device
}

// NewMOSFET creates a MOSFET element. For PMOS devices the model is
// evaluated with source/gate/drain voltage differences reversed, so the
// same Device works for both polarities.
func NewMOSFET(name string, d, g, s NodeID, dev mos.Device) *MOSFET {
	return &MOSFET{name: name, D: d, G: g, S: s, Dev: dev}
}

// Name implements Element.
func (m *MOSFET) Name() string { return m.name }

// Op evaluates the device at a solved operating point.
func (m *MOSFET) Op(sol *Solution) mos.OpPoint {
	vd, vg, vs := sol.VoltageAt(m.D), sol.VoltageAt(m.G), sol.VoltageAt(m.S)
	if m.Dev.P.Kind == mos.PMOS {
		return m.Dev.Eval(vs-vg, vs-vd)
	}
	return m.Dev.Eval(vg-vs, vd-vs)
}

// Stamp implements Element.
func (m *MOSFET) Stamp(s *Stamper) {
	vd, vg, vs := s.V(m.D), s.V(m.G), s.V(m.S)
	if m.Dev.P.Kind == mos.PMOS {
		// Evaluate in magnitude space: vgs' = vs-vg, vds' = vs-vd.
		op := m.Dev.Eval(vs-vg, vs-vd)
		// Channel current flows S -> D externally (into S terminal).
		// I = f(vs-vg, vs-vd):
		//   dI/dvs = gm + gds, dI/dvg = -gm, dI/dvd = -gds
		gm, gds := op.Gm, op.Gds
		ieq := op.ID - (gm+gds)*vs + gm*vg + gds*vd
		// KCL row S: +I ; row D: -I (current leaves D into the circuit).
		m.stampCurrentRow(s, m.S, gm+gds, -gm, -gds, ieq)
		m.stampCurrentRow(s, m.D, -(gm + gds), gm, gds, -ieq)
		return
	}
	op := m.Dev.Eval(vg-vs, vd-vs)
	gm, gds := op.Gm, op.Gds
	// I_D flows into drain, out of source.
	// I = f(vg-vs, vd-vs): dI/dvg = gm, dI/dvd = gds, dI/dvs = -(gm+gds)
	ieq := op.ID - gm*vg - gds*vd + (gm+gds)*vs
	m.stampCurrentRow(s, m.D, -(gm + gds), gm, gds, ieq)
	m.stampCurrentRow(s, m.S, gm+gds, -gm, -gds, -ieq)
}

// stampCurrentRow stamps the row for node `row` of a current that depends
// linearly on (vs, vg, vd) with the given partials plus constant ieq:
// the KCL contribution is I = dvs·vs + dvg·vg + dvd·vd + ieq flowing OUT
// of the node, i.e. A[row]·x = -ieq.
func (m *MOSFET) stampCurrentRow(s *Stamper, row NodeID, dvs, dvg, dvd, ieq float64) {
	if row == Ground {
		return
	}
	s.AddEntry(int(row), int(m.S), dvs)
	s.AddEntry(int(row), int(m.G), dvg)
	s.AddEntry(int(row), int(m.D), dvd)
	s.AddRHS(int(row), -ieq)
}
