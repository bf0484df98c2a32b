package spice

import "fmt"

// TransientSolver is the rebuild-per-run fixed-timestep transient
// engine: it stamps every element through the generic Element interface
// and integrates with trapezoidal companions. No production path runs
// it. It is the reference CircuitTemplate is pinned against
// (TestCircuitTemplateMatchesRebuild, FuzzTemplateMutation) and the
// engine behind the SPICE CUT's output oracle, biquad's RebuildOutput.
// It has two loops:
//
//   - Linear circuits (Circuit.Linear, i.e. no MOSFETs) skip the
//     per-step Newton loop. With a fixed timestep their MNA matrix is
//     constant, so the solver factors the LU once and only refreshes
//     the RHS and re-solves each step. The result is bit-identical to
//     the Newton loop (the Newton iteration on a linear system lands on
//     the same LU solution), which TestLinearFastPathBitIdenticalToNewton
//     pins down.
//   - Every other circuit, or any circuit when the constructor asks for
//     it, runs the damped Newton loop at every step.
//
// Run streams each accepted step through a callback instead of
// materializing the full waveform. A TransientSolver is not safe for
// concurrent use (it owns mutable element state and a workspace).
type TransientSolver struct {
	c      *Circuit
	sv     *solver
	linear bool
}

// NewTransientSolver builds a transient engine with a private
// workspace. newton forces the per-step Newton loop even on a linear
// circuit, for the tests that compare the two loops.
func NewTransientSolver(c *Circuit, newton bool) *TransientSolver {
	return &TransientSolver{
		c:      c,
		sv:     newSolverWS(c, nil),
		linear: c.Linear() && !newton,
	}
}

// Linear reports whether the single-factorization fast path is active.
func (ts *TransientSolver) Linear() bool { return ts.linear }

// resetDynamicState clears per-run element history (capacitor companion
// currents) so repeated Runs on one solver start from rest.
func (ts *TransientSolver) resetDynamicState() {
	for _, e := range ts.c.elements {
		if cap, ok := e.(*Capacitor); ok {
			cap.prevCur = 0
		}
	}
}

// Run integrates the circuit over [0, dur] in the given number of fixed
// steps, starting from the DC operating point at t = 0. onStep is called
// for every accepted point — step 0 is the operating point, step k the
// solution at t = k·dur/steps. The solution passed to onStep reuses the
// solver's buffers; copy what it needs beyond the callback.
func (ts *TransientSolver) Run(dur float64, steps int, onStep func(step int, t float64, sol *Solution)) error {
	if steps < 1 {
		return fmt.Errorf("spice: transient needs at least 1 step")
	}
	ts.resetDynamicState()
	sv := ts.sv
	ws := sv.ws
	for i := range ws.x {
		ws.x[i] = 0
	}
	op, err := sv.dcop(nil)
	if err != nil {
		return fmt.Errorf("spice: transient initial OP: %w", err)
	}
	copy(ws.prev, op.X)
	copy(ws.x, op.X)
	if onStep != nil {
		onStep(0, 0, op)
	}
	dt := dur / float64(steps)
	live := &Solution{circuit: ts.c, X: ws.x}
	var caps []*Capacitor
	for _, e := range ts.c.elements {
		if cap, ok := e.(*Capacitor); ok {
			caps = append(caps, cap)
		}
	}
	commit := func() {
		for _, cap := range caps {
			cap.commitStep(ws.x, ws.prev, dt)
		}
		copy(ws.prev, ws.x)
	}
	if !ts.linear {
		for k := 1; k <= steps; k++ {
			t := float64(k) * dt
			tmpl := Stamper{Time: t, Dt: dt, Prev: ws.prev, SrcScale: 1}
			if err := sv.newton(tmpl, gmin); err != nil {
				return fmt.Errorf("spice: transient step %d (t=%g): %w", k, t, err)
			}
			commit()
			if onStep != nil {
				onStep(k, t, live)
			}
		}
		return nil
	}
	// Linear fast path: the matrix is constant for a fixed dt, so stamp
	// and factor it once; per step only the RHS is rebuilt (matrix writes
	// land in a discard view) and the factored system re-solved.
	nNodes := ts.c.NumNodes()
	ws.a.Zero()
	for i := range ws.b {
		ws.b[i] = 0
	}
	st := Stamper{
		A: ws.a, B: ws.b, X: ws.x,
		Time: dt, Dt: dt, Prev: ws.prev,
		SrcScale: 1,
	}
	for _, e := range ts.c.elements {
		e.Stamp(&st)
	}
	for i := 0; i < nNodes; i++ {
		ws.a.Add(i, i, gmin)
	}
	if err := ws.factor(); err != nil {
		return fmt.Errorf("spice: singular MNA matrix: %w", err)
	}
	// Only elements that contribute to the RHS need restamping per step;
	// purely matrix-stamping elements (resistors, controlled sources) are
	// skipped. Unknown element kinds are conservatively kept. Skipping
	// preserves bit-identity: the surviving RHS writes keep their
	// relative order and the skipped elements never wrote to it.
	rhs := make([]Element, 0, len(ts.c.elements))
	for _, e := range ts.c.elements {
		switch e.(type) {
		case *Resistor, *VCVS:
		default:
			rhs = append(rhs, e)
		}
	}
	for k := 1; k <= steps; k++ {
		t := float64(k) * dt
		for i := range ws.b {
			ws.b[i] = 0
		}
		st := Stamper{
			A: nullMatrix{}, B: ws.b, X: ws.x,
			Time: t, Dt: dt, Prev: ws.prev,
			SrcScale: 1,
		}
		for _, e := range rhs {
			e.Stamp(&st)
		}
		ws.lu.Solve(ws.b, ws.x)
		commit()
		if onStep != nil {
			onStep(k, t, live)
		}
	}
	return nil
}
