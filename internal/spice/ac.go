package spice

import (
	"fmt"
	"math"

	"repro/internal/mos"
	"repro/internal/num"
)

// ACResult holds a small-signal frequency sweep: node phasors per
// frequency for a unit AC excitation at the designated source.
type ACResult struct {
	circuit *Circuit
	Freqs   []float64
	X       [][]complex128 // per frequency: node voltages + branch currents
}

// Voltage returns the phasor of the named node at frequency index k.
func (r *ACResult) Voltage(name string, k int) (complex128, error) {
	if name == "0" || name == "gnd" || name == "GND" {
		return 0, nil
	}
	id, ok := r.circuit.nodeIdx[name]
	if !ok {
		return 0, fmt.Errorf("spice: unknown node %q", name)
	}
	return r.X[k][id], nil
}

// AC performs a small-signal analysis: the circuit is linearized at its
// DC operating point (MOSFETs become gm/gds stamps), the source named
// acSource is driven with a unit phasor, and the complex MNA system is
// solved at every frequency. This is how the Tow-Thomas realization's
// transfer function is verified against the behavioural biquad.
func AC(c *Circuit, acSource string, freqs []float64) (*ACResult, error) {
	src, ok := c.FindElement(acSource).(*VSource)
	if !ok {
		return nil, fmt.Errorf("spice: AC source %q not found or not a VSource", acSource)
	}
	op, err := DCOperatingPoint(c)
	if err != nil {
		return nil, fmt.Errorf("spice: AC needs a DC operating point: %w", err)
	}
	n := c.Size()
	res := &ACResult{circuit: c, Freqs: freqs}
	a := num.NewCMatrix(n, n)
	b := make([]complex128, n)
	for _, f := range freqs {
		omega := 2 * math.Pi * f
		a.Zero()
		for i := range b {
			b[i] = 0
		}
		for _, e := range c.elements {
			stampAC(a, b, e, op, omega, src)
		}
		for i := 0; i < c.NumNodes(); i++ {
			a.Add(i, i, complex(gmin, 0))
		}
		x, err := num.CSolve(a, b)
		if err != nil {
			return nil, fmt.Errorf("spice: AC solve at %g Hz: %w", f, err)
		}
		res.X = append(res.X, x)
	}
	return res, nil
}

// stampAC adds one element's small-signal contribution.
func stampAC(a *num.CMatrix, b []complex128, e Element, op *Solution, omega float64, acSrc *VSource) {
	addG := func(p, m NodeID, g complex128) {
		if p != Ground {
			a.Add(int(p), int(p), g)
		}
		if m != Ground {
			a.Add(int(m), int(m), g)
		}
		if p != Ground && m != Ground {
			a.Add(int(p), int(m), -g)
			a.Add(int(m), int(p), -g)
		}
	}
	entry := func(r, c int, v complex128) {
		if r >= 0 && c >= 0 {
			a.Add(r, c, v)
		}
	}
	switch el := e.(type) {
	case *Resistor:
		addG(el.P, el.M, complex(1/el.Ohms, 0))
	case *Capacitor:
		addG(el.P, el.M, complex(0, omega*el.Farads))
	case *VSource:
		entry(int(el.P), el.branch, 1)
		entry(int(el.M), el.branch, -1)
		entry(el.branch, int(el.P), 1)
		entry(el.branch, int(el.M), -1)
		if el == acSrc {
			b[el.branch] += 1 // unit AC excitation
		}
	case *ISource:
		// Independent current sources are open in AC (no AC component).
	case *VCVS:
		entry(int(el.P), el.branch, 1)
		entry(int(el.M), el.branch, -1)
		entry(el.branch, int(el.P), 1)
		entry(el.branch, int(el.M), -1)
		entry(el.branch, int(el.CP), complex(-el.Gain, 0))
		entry(el.branch, int(el.CM), complex(el.Gain, 0))
	case *MOSFET:
		pt := el.Op(op)
		gm, gds := complex(pt.Gm, 0), complex(pt.Gds, 0)
		d, g, s := el.D, el.G, el.S
		if el.Dev.P.Kind == mos.PMOS {
			// In magnitude space the pMOS current flows S->D; its
			// small-signal stamps mirror the nMOS with S and D exchanged
			// and the gate transconductance referenced to VSG.
			row := func(r NodeID, sgn complex128) {
				if r == Ground {
					return
				}
				entry(int(r), int(s), sgn*(gm+gds))
				entry(int(r), int(g), -sgn*gm)
				entry(int(r), int(d), -sgn*gds)
			}
			row(s, 1)
			row(d, -1)
			return
		}
		row := func(r NodeID, sgn complex128) {
			if r == Ground {
				return
			}
			entry(int(r), int(g), sgn*gm)
			entry(int(r), int(d), sgn*gds)
			entry(int(r), int(s), -sgn*(gm+gds))
		}
		row(d, 1)
		row(s, -1)
	}
}
