package spice

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/num"
)

// ErrNoConvergence is returned when all convergence aids are exhausted.
var ErrNoConvergence = errors.New("spice: Newton iteration did not converge")

// Newton-Raphson settings. Every analysis uses them; no caller tunes
// them.
const (
	maxIter = 150   // Newton iterations per attempt
	absTol  = 1e-9  // absolute voltage tolerance, V
	relTol  = 1e-6  // relative voltage tolerance
	gmin    = 1e-12 // minimum conductance to ground on every node, S
	// maxStep clamps the voltage update of one Newton iteration, V.
	// Linear circuits skip the clamp (see newSolverWS).
	maxStep = 0.3
)

// Workspace holds the matrix, RHS, iterate, LU and state buffers one
// analysis needs. A caller that solves one circuit many times — the
// transistor-level monitor runs thousands of DC solves per boundary
// trace — keeps one Workspace and threads it through DCOperatingPointWS,
// so repeated solves reuse all heavy allocations. Buffers are (re)sized
// and cleared on first use by each analysis; stale contents never affect
// results. Like rng.Stream it is not safe for concurrent use.
type Workspace struct {
	a                *num.Matrix
	b, x, xNew, prev []float64
	lu               *num.LU
}

// NewWorkspace returns an empty workspace; buffers are allocated lazily
// to the size of the first circuit solved with it.
func NewWorkspace() *Workspace { return &Workspace{} }

// ensure sizes the buffers for an n-dimensional MNA system and clears
// the vectors so a fresh analysis never observes a previous trial.
func (w *Workspace) ensure(n int) {
	if w.a == nil || w.a.Rows != n {
		w.a = num.NewMatrix(n, n)
		w.b = make([]float64, n)
		w.x = make([]float64, n)
		w.xNew = make([]float64, n)
		w.prev = make([]float64, n)
		w.lu = nil
		return
	}
	w.a.Zero()
	for i := 0; i < n; i++ {
		w.b[i] = 0
		w.x[i] = 0
		w.xNew[i] = 0
		w.prev[i] = 0
	}
}

// factor (re)factors the workspace matrix into the reusable LU.
func (w *Workspace) factor() error {
	if w.lu == nil || w.lu.Dim() != w.a.Rows {
		lu, err := num.Factor(w.a)
		if err != nil {
			return err
		}
		w.lu = lu
		return nil
	}
	return w.lu.FactorInto(w.a)
}

// solver carries reusable workspaces across Newton iterations and sweeps.
type solver struct {
	c  *Circuit
	ws *Workspace
	// maxStep is the Newton step clamp: the package's maxStep, or +Inf
	// for a linear circuit.
	maxStep float64
	// st is the scratch Stamper handed to Element.Stamp. Stamp takes a
	// *Stamper through an interface, so a stack-local would escape and
	// heap-allocate on every Newton iteration; a solver field keeps the
	// warm trial loop allocation-free.
	st Stamper
}

// newSolverWS builds a solver over a caller-owned workspace (nil for a
// private one).
func newSolverWS(c *Circuit, ws *Workspace) *solver {
	c.assignBranches()
	if ws == nil {
		ws = NewWorkspace()
	}
	ws.ensure(c.Size())
	// Linear circuits need no Newton damping: the first iteration lands
	// on the exact solution, so the per-iteration voltage clamp only
	// slows (or, for operating points far from zero — e.g. a shorted
	// gain resistor driving a node to 10⁵ V — prevents) convergence.
	step := maxStep
	if c.Linear() {
		step = math.Inf(1)
	}
	return &solver{c: c, ws: ws, maxStep: step}
}

// newton runs damped Newton-Raphson from the current iterate with the
// given stamper template (time/dt/prev/DC/srcScale) and node-to-ground
// conductance g. On success the workspace x holds the solution.
func (s *solver) newton(tmpl Stamper, g float64) error {
	n := s.c.Size()
	nNodes := s.c.NumNodes()
	ws := s.ws
	for iter := 0; iter < maxIter; iter++ {
		ws.a.Zero()
		for i := range ws.b {
			ws.b[i] = 0
		}
		s.st = tmpl
		s.st.A = ws.a
		s.st.B = ws.b
		s.st.X = ws.x
		for _, e := range s.c.elements {
			e.Stamp(&s.st)
		}
		// gmin from every node to ground keeps the matrix nonsingular in
		// the presence of floating or source-follower nodes.
		for i := 0; i < nNodes; i++ {
			ws.a.Add(i, i, g)
		}
		if err := ws.factor(); err != nil {
			return fmt.Errorf("spice: singular MNA matrix: %w", err)
		}
		ws.lu.Solve(ws.b, ws.xNew)
		// Damped update with per-variable step clamp on node voltages.
		maxDelta := 0.0
		for i := 0; i < n; i++ {
			d := ws.xNew[i] - ws.x[i]
			if i < nNodes {
				d = num.Clamp(d, -s.maxStep, s.maxStep)
			}
			if ad := math.Abs(d); ad > maxDelta && i < nNodes {
				maxDelta = ad
			}
			ws.x[i] += d
		}
		if math.IsNaN(maxDelta) {
			return ErrNoConvergence
		}
		if maxDelta < absTol+relTol*num.NormInf(ws.x[:nNodes]) {
			return nil
		}
	}
	return ErrNoConvergence
}

// DCOperatingPoint solves the nonlinear DC operating point. It first
// tries plain Newton from a zero (or provided) initial guess, then gmin
// stepping, then source stepping.
func DCOperatingPoint(c *Circuit) (*Solution, error) {
	return newSolverWS(c, nil).dcop(nil)
}

// DCOperatingPointWS solves the DC operating point starting from a
// previous solution (continuation; nil starts from zero) in a
// caller-owned workspace, for hot loops that solve the same circuit at
// many bias points (the transistor-level monitor's per-sample Bit
// evaluation).
func DCOperatingPointWS(c *Circuit, prev *Solution, ws *Workspace) (*Solution, error) {
	s := newSolverWS(c, ws)
	return s.dcop(prev)
}

func (s *solver) dcop(init *Solution) (*Solution, error) {
	if err := s.dcopWS(init); err != nil {
		return nil, err
	}
	return s.solution(), nil
}

// dcopWS is dcop leaving the operating point in the workspace iterate
// (ws.x) instead of materializing a Solution — the allocation-free form
// the trial-template engine calls once per trial.
func (s *solver) dcopWS(init *Solution) error {
	if err := s.c.Validate(); err != nil {
		return err
	}
	ws := s.ws
	tmpl := Stamper{DC: true, SrcScale: 1}
	if init != nil && len(init.X) == len(ws.x) {
		copy(ws.x, init.X)
	}
	if err := s.newton(tmpl, gmin); err == nil {
		return nil
	}
	// gmin stepping: solve with a large gmin, then relax it decade by
	// decade, reusing each solution as the next starting point.
	for i := range ws.x {
		ws.x[i] = 0
	}
	converged := true
	for g := 1e-3; g >= gmin; g /= 10 {
		if err := s.newton(tmpl, g); err != nil {
			converged = false
			break
		}
	}
	if converged {
		if err := s.newton(tmpl, gmin); err == nil {
			return nil
		}
	}
	// Source stepping: ramp all independent sources from 10% to 100%.
	for i := range ws.x {
		ws.x[i] = 0
	}
	for scale := 0.1; ; scale += 0.1 {
		if scale > 1 {
			scale = 1
		}
		st := tmpl
		st.SrcScale = scale
		if err := s.newton(st, gmin); err != nil {
			return fmt.Errorf("%w (source stepping failed at %.0f%%)", ErrNoConvergence, scale*100)
		}
		if scale == 1 {
			return nil
		}
	}
}

func (s *solver) solution() *Solution {
	x := make([]float64, len(s.ws.x))
	copy(x, s.ws.x)
	return &Solution{circuit: s.c, X: x}
}
