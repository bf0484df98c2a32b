// Package spice is a compact nonlinear circuit simulator built on
// modified nodal analysis (MNA). It exists so the monitor of Fig. 2 can be
// simulated at transistor level — the paper's "experimental" boundary
// curves come from fabricated silicon, which we substitute with DC
// operating-point extraction over the (x, y) input grid.
//
// Feature set (deliberately scoped to what the reproduction needs, but
// complete within that scope):
//
//   - elements: resistor, capacitor, independent V/I sources (DC or
//     waveform-driven), VCVS, and MOSFETs using the internal/mos model
//   - nonlinear DC operating point: Newton-Raphson with per-iteration
//     voltage damping, gmin stepping and source stepping fallbacks
//   - transient analysis with trapezoidal companions, compiled into a
//     reusable CircuitTemplate for linear circuits
//   - small-signal AC analysis about the DC operating point
//
// Circuits are built in Go with New, Node and Add.
package spice

import (
	"fmt"

	"repro/internal/wave"
)

// NodeID identifies a circuit node. Ground is the constant Ground (-1)
// and is not represented in the MNA system.
type NodeID int

// Ground is the reference node "0".
const Ground NodeID = -1

// Circuit is a netlist: a set of named nodes and elements.
type Circuit struct {
	nodeIdx  map[string]NodeID
	nodeName []string
	elements []Element
	nBranch  int // number of extra MNA branch-current unknowns
	// invalid records the first non-physical element registered via Add
	// (e.g. a non-positive resistance). Construction stays panic-free;
	// every analysis reports the deferred error instead of solving a
	// garbage system.
	invalid error
}

// New returns an empty circuit.
func New() *Circuit {
	return &Circuit{nodeIdx: make(map[string]NodeID)}
}

// Node returns the NodeID for name, creating the node on first use.
// The names "0", "gnd" and "GND" map to Ground.
func (c *Circuit) Node(name string) NodeID {
	if name == "0" || name == "gnd" || name == "GND" {
		return Ground
	}
	if id, ok := c.nodeIdx[name]; ok {
		return id
	}
	id := NodeID(len(c.nodeName))
	c.nodeIdx[name] = id
	c.nodeName = append(c.nodeName, name)
	return id
}

// NumNodes returns the number of non-ground nodes.
func (c *Circuit) NumNodes() int { return len(c.nodeName) }

// Size returns the dimension of the MNA system (nodes + branch currents).
func (c *Circuit) Size() int { return len(c.nodeName) + c.nBranch }

// Add registers an element. Elements that need a branch-current unknown
// (voltage sources, VCVS) are assigned one here. Elements carrying
// non-physical values are still registered, but the defect is recorded
// and every subsequent analysis fails with it (see Validate).
func (c *Circuit) Add(e Element) {
	if v, ok := e.(validatedElement); ok && c.invalid == nil {
		if err := v.validate(); err != nil {
			c.invalid = err
		}
	}
	if b, ok := e.(branchUser); ok {
		b.setBranch(len(c.nodeName)) // placeholder; finalized in assignBranches
		c.nBranch++
	}
	c.elements = append(c.elements, e)
}

// Validate returns the first non-physical element error recorded by Add
// (nil for a healthy netlist). Analyses call it before solving.
func (c *Circuit) Validate() error { return c.invalid }

// assignBranches gives every branch-using element its final row index
// (after all nodes are known). Called once per analysis.
func (c *Circuit) assignBranches() {
	next := len(c.nodeName)
	for _, e := range c.elements {
		if b, ok := e.(branchUser); ok {
			b.setBranch(next)
			next++
		}
	}
}

// Linear reports whether every element stamps a solution-independent
// (linear) companion model. Linear circuits need no Newton iteration:
// with a fixed timestep the MNA matrix is constant, so a transient can
// factor it once and only re-solve per step (CircuitTemplate, and
// TransientSolver's fast path). The MOSFET is the only nonlinear element.
func (c *Circuit) Linear() bool {
	for _, e := range c.elements {
		if _, ok := e.(*MOSFET); ok {
			return false
		}
	}
	return true
}

// FindElement returns the first element with the given name, or nil.
func (c *Circuit) FindElement(name string) Element {
	for _, e := range c.elements {
		if e.Name() == name {
			return e
		}
	}
	return nil
}

// Stamper is handed to each element during matrix assembly. Elements add
// their linearized companion-model contributions through it.
type Stamper struct {
	A    matrixView
	B    []float64
	X    []float64 // current Newton iterate (node voltages + branch currents)
	Time float64   // current simulation time (s); 0 for DC
	Dt   float64   // current timestep; 0 for DC
	Prev []float64 // previous timestep solution; nil for DC
	DC   bool      // true during DC analyses (capacitors open)
	// SrcScale scales independent sources during source stepping (0..1].
	SrcScale float64
}

type matrixView interface {
	Add(i, j int, v float64)
}

// V returns the voltage of node n under the current iterate.
func (s *Stamper) V(n NodeID) float64 {
	if n == Ground {
		return 0
	}
	return s.X[n]
}

// PrevV returns the previous-timestep voltage of node n (0 for Ground or
// when there is no previous solution).
func (s *Stamper) PrevV(n NodeID) float64 {
	if n == Ground || s.Prev == nil {
		return 0
	}
	return s.Prev[n]
}

// AddConductance stamps a conductance g between nodes p and m.
func (s *Stamper) AddConductance(p, m NodeID, g float64) {
	if p != Ground {
		s.A.Add(int(p), int(p), g)
	}
	if m != Ground {
		s.A.Add(int(m), int(m), g)
	}
	if p != Ground && m != Ground {
		s.A.Add(int(p), int(m), -g)
		s.A.Add(int(m), int(p), -g)
	}
}

// AddCurrent stamps a current i flowing *into* node p and out of node m
// (i.e. a current source m -> p through the element).
func (s *Stamper) AddCurrent(p, m NodeID, i float64) {
	if p != Ground {
		s.B[p] += i
	}
	if m != Ground {
		s.B[m] -= i
	}
}

// AddEntry stamps an arbitrary matrix entry (rows/cols may be branch
// indices). Ground rows/cols (negative) are skipped.
func (s *Stamper) AddEntry(row, col int, v float64) {
	if row < 0 || col < 0 {
		return
	}
	s.A.Add(row, col, v)
}

// AddRHS adds v to an arbitrary RHS row, skipping ground.
func (s *Stamper) AddRHS(row int, v float64) {
	if row < 0 {
		return
	}
	s.B[row] += v
}

// Element is a circuit element that can stamp its (linearized)
// contribution into the MNA system.
type Element interface {
	Name() string
	Stamp(s *Stamper)
}

// branchUser is implemented by elements that need an MNA branch-current
// unknown (voltage-defined elements).
type branchUser interface {
	setBranch(row int)
}

// validatedElement is the capability interface for elements that can
// check their own values; Add records the first failure on the circuit.
type validatedElement interface {
	validate() error
}

// nullMatrix discards matrix writes. The linear transient fast path
// stamps every element per step only to refresh the RHS; the (constant)
// matrix contributions land here.
type nullMatrix struct{}

func (nullMatrix) Add(i, j int, v float64) {}

// Solution holds the result of an analysis at one bias/time point.
type Solution struct {
	circuit *Circuit
	X       []float64
}

// Voltage returns the solved voltage at the named node.
func (s *Solution) Voltage(name string) (float64, error) {
	if name == "0" || name == "gnd" || name == "GND" {
		return 0, nil
	}
	id, ok := s.circuit.nodeIdx[name]
	if !ok {
		return 0, fmt.Errorf("spice: unknown node %q", name)
	}
	return s.X[id], nil
}

// VoltageAt returns the voltage of a NodeID.
func (s *Solution) VoltageAt(n NodeID) float64 {
	if n == Ground {
		return 0
	}
	return s.X[n]
}

// sourceWaveform adapts wave.Waveform for source elements; nil means DC 0.
type sourceWaveform struct {
	dc float64
	w  wave.Waveform
}

func (sw sourceWaveform) at(t float64, dcOnly bool) float64 {
	if sw.w == nil || dcOnly {
		return sw.dc
	}
	return sw.w.Eval(t)
}
