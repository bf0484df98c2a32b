package spice

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/num"
)

// ErrNoConvergence is returned when all convergence aids are exhausted.
var ErrNoConvergence = errors.New("spice: Newton iteration did not converge")

// Options tunes the nonlinear solver. Zero value fields fall back to the
// documented defaults.
type Options struct {
	MaxIter   int     // Newton iterations per attempt (default 150)
	AbsTol    float64 // absolute voltage tolerance, V (default 1e-9)
	RelTol    float64 // relative voltage tolerance (default 1e-6)
	Gmin      float64 // minimum conductance to ground on every node (default 1e-12)
	MaxStep   float64 // max voltage update per Newton iteration, V (default 0.3)
	Trapezoid bool    // use trapezoidal integration in Transient
	// ForceNewton disables the linear transient fast path, running the
	// per-step Newton loop even for linear circuits. It exists for the
	// fast-path-vs-Newton equivalence tests and benchmarks.
	ForceNewton bool
}

func (o Options) withDefaults() Options {
	if o.MaxIter == 0 {
		o.MaxIter = 150
	}
	if o.AbsTol == 0 {
		o.AbsTol = 1e-9
	}
	if o.RelTol == 0 {
		o.RelTol = 1e-6
	}
	if o.Gmin == 0 {
		o.Gmin = 1e-12
	}
	if o.MaxStep == 0 {
		o.MaxStep = 0.3
	}
	return o
}

// Workspace holds the matrix, RHS, iterate, LU and state buffers one
// analysis needs. A campaign trial loop allocates one Workspace per
// worker and threads it through every solve (mirroring the
// signature.CaptureBuffer pattern), so repeated trials on same-sized
// circuits — e.g. perturbed Tow-Thomas netlists in a Monte-Carlo fault
// or yield study — reuse all heavy allocations. Buffers are (re)sized
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
	c   *Circuit
	opt Options
	ws  *Workspace
	// st is the scratch Stamper handed to Element.Stamp. Stamp takes a
	// *Stamper through an interface, so a stack-local would escape and
	// heap-allocate on every Newton iteration; a solver field keeps the
	// warm trial loop allocation-free.
	st Stamper
}

// newSolverWS builds a solver over a caller-owned workspace (nil for a
// private one).
func newSolverWS(c *Circuit, opt Options, ws *Workspace) *solver {
	c.assignBranches()
	if ws == nil {
		ws = NewWorkspace()
	}
	ws.ensure(c.Size())
	opt = opt.withDefaults()
	// Linear circuits need no Newton damping: the first iteration lands
	// on the exact solution, so the per-iteration voltage clamp only
	// slows (or, for operating points far from zero — e.g. a shorted
	// gain resistor driving a node to 10⁵ V — prevents) convergence.
	if c.Linear() {
		opt.MaxStep = math.Inf(1)
	}
	return &solver{c: c, opt: opt, ws: ws}
}

// newton runs damped Newton-Raphson from the current iterate with the
// given stamper template (time/dt/prev/DC/srcScale) and gmin. On success
// the workspace x holds the solution.
func (s *solver) newton(tmpl Stamper, gmin float64) error {
	n := s.c.Size()
	nNodes := s.c.NumNodes()
	ws := s.ws
	for iter := 0; iter < s.opt.MaxIter; iter++ {
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
			ws.a.Add(i, i, gmin)
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
				d = num.Clamp(d, -s.opt.MaxStep, s.opt.MaxStep)
			}
			if ad := math.Abs(d); ad > maxDelta && i < nNodes {
				maxDelta = ad
			}
			ws.x[i] += d
		}
		if math.IsNaN(maxDelta) {
			return ErrNoConvergence
		}
		if maxDelta < s.opt.AbsTol+s.opt.RelTol*num.NormInf(ws.x[:nNodes]) {
			return nil
		}
	}
	return ErrNoConvergence
}

// DCOperatingPoint solves the nonlinear DC operating point. It first
// tries plain Newton from a zero (or provided) initial guess, then gmin
// stepping, then source stepping.
func DCOperatingPoint(c *Circuit, opt Options) (*Solution, error) {
	return newSolverWS(c, opt, nil).dcop(nil)
}

// DCOperatingPointWS solves the DC operating point starting from a
// previous solution (continuation; nil starts from zero) in a
// caller-owned workspace, for hot loops that solve the same circuit at
// many bias points (the transistor-level monitor's per-sample Bit
// evaluation).
func DCOperatingPointWS(c *Circuit, opt Options, prev *Solution, ws *Workspace) (*Solution, error) {
	s := newSolverWS(c, opt, ws)
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
	if err := s.newton(tmpl, s.opt.Gmin); err == nil {
		return nil
	}
	// gmin stepping: solve with a large gmin, then relax it decade by
	// decade, reusing each solution as the next starting point.
	for i := range ws.x {
		ws.x[i] = 0
	}
	converged := true
	for g := 1e-3; g >= s.opt.Gmin; g /= 10 {
		if err := s.newton(tmpl, g); err != nil {
			converged = false
			break
		}
	}
	if converged {
		if err := s.newton(tmpl, s.opt.Gmin); err == nil {
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
		if err := s.newton(st, s.opt.Gmin); err != nil {
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
