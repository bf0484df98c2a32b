package biquad

import (
	"fmt"
	"math/cmplx"

	"repro/internal/spice"
)

// opampGain is the open-loop gain of the ideal opamps (VCVS) used in the
// circuit-level realization. Large enough that closed-loop error is
// negligible, small enough to keep the MNA system well-conditioned.
const opampGain = 1e7

// TowThomasNodes names the observable nodes of the realized filter.
type TowThomasNodes struct {
	In string // stimulus input
	LP string // low-pass output (the paper's monitored y(t))
	BP string // band-pass output (used by the Q-verification extension)
}

// Netlist realizes the Tow-Thomas biquad as an opamp-RC circuit for the
// internal/spice engine:
//
//	A1 (lossy integrator): RG from in, RQ damping, C feedback, R from A3
//	A2 (integrator):       R from A1, C feedback   -> LP output
//	A3 (unity inverter):   R from A2, R feedback
//
// With equal integrator R and C the transfer functions are
//
//	V(lp)/V(in) =  (R/RG) · ω0² / (s² + (ω0/Q)s + ω0²),  ω0 = 1/(RC), Q = RQ/R
//	V(bp)/V(in) = −s·RC · V(lp)/V(in)
//
// matching Components.Params exactly; tests verify this equivalence via
// AC and transient analysis. Opamps are ideal VCVS stages.
func (c Components) Netlist() (*spice.Circuit, TowThomasNodes, error) {
	if err := c.Validate(); err != nil {
		return nil, TowThomasNodes{}, err
	}
	ckt := spice.New()
	in := ckt.Node("in")
	n1 := ckt.Node("n1")
	o1 := ckt.Node("bp") // band-pass at the first integrator output
	n2 := ckt.Node("n2")
	o2 := ckt.Node("lp") // low-pass at the second integrator output
	n3 := ckt.Node("n3")
	o3 := ckt.Node("o3")

	ckt.Add(spice.NewVSource("VIN", in, spice.Ground, 0))

	// A1: summing lossy integrator.
	ckt.Add(spice.NewVCVS("EA1", o1, spice.Ground, spice.Ground, n1, opampGain))
	ckt.Add(spice.NewResistor("RG", in, n1, c.RG))
	ckt.Add(spice.NewResistor("RQ", o1, n1, c.RQ))
	ckt.Add(spice.NewCapacitor("C1", o1, n1, c.C))
	ckt.Add(spice.NewResistor("RF", o3, n1, c.R))

	// A2: integrator.
	ckt.Add(spice.NewVCVS("EA2", o2, spice.Ground, spice.Ground, n2, opampGain))
	ckt.Add(spice.NewResistor("R12", o1, n2, c.R))
	ckt.Add(spice.NewCapacitor("C2", o2, n2, c.C))

	// A3: unity inverter closing the loop.
	ckt.Add(spice.NewVCVS("EA3", o3, spice.Ground, spice.Ground, n3, opampGain))
	ckt.Add(spice.NewResistor("R23", o2, n3, c.R))
	ckt.Add(spice.NewResistor("R33", o3, n3, c.R))

	return ckt, TowThomasNodes{In: "in", LP: "lp", BP: "bp"}, nil
}

// CircuitResponse runs an AC analysis of the realized circuit and
// returns |V(node)/V(in)| at the given frequencies — the measured
// counterpart of Filter.Magnitude.
func (c Components) CircuitResponse(node string, freqs []float64) ([]float64, error) {
	ckt, nodes, err := c.Netlist()
	if err != nil {
		return nil, err
	}
	switch node {
	case nodes.LP, nodes.BP:
	default:
		return nil, fmt.Errorf("biquad: node %q is not an output (want %q or %q)", node, nodes.LP, nodes.BP)
	}
	res, err := spice.AC(ckt, "VIN", freqs)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(freqs))
	for k := range freqs {
		v, err := res.Voltage(node, k)
		if err != nil {
			return nil, err
		}
		out[k] = cmplx.Abs(v)
	}
	return out, nil
}
