package spice

import "fmt"

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

// TransientSolver is a reusable fixed-timestep transient engine for one
// circuit. It exists to make SPICE-backed Monte-Carlo campaigns viable:
//
//   - Linear circuits (Circuit.Linear, i.e. no MOSFETs) skip the
//     per-step Newton loop entirely. With a fixed timestep their MNA
//     matrix is constant, so the solver factors the LU once and only
//     refreshes the RHS and re-solves each step — the per-step cost
//     drops from O(iterations·n³) to O(n²). The result is bit-identical
//     to the Newton path (the Newton iteration on a linear system lands
//     on the same LU solution), which the equivalence test pins down.
//   - All matrix/RHS/iterate/state buffers live in a Workspace that can
//     be shared across trials (one per campaign worker), so repeated
//     runs allocate nothing but the caller's own samples.
//   - Run streams each accepted step through a callback instead of
//     materializing the full waveform; signature capture keeps only the
//     steady-state samples it needs.
//
// A TransientSolver is not safe for concurrent use (it owns mutable
// element state and a workspace).
type TransientSolver struct {
	c      *Circuit
	opt    Options
	sv     *solver
	linear bool
}

// NewTransientSolver builds a transient engine with a private workspace.
func NewTransientSolver(c *Circuit, opt Options) *TransientSolver {
	return NewTransientSolverWS(c, opt, nil)
}

// NewTransientSolverWS builds a transient engine over a caller-owned
// workspace so campaign trial loops can reuse allocations across
// circuits (nil ws allocates a private one).
func NewTransientSolverWS(c *Circuit, opt Options, ws *Workspace) *TransientSolver {
	sv := newSolverWS(c, opt, ws)
	return &TransientSolver{
		c:      c,
		opt:    sv.opt,
		sv:     sv,
		linear: c.Linear() && !sv.opt.ForceNewton,
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
// solver's buffers: clone it (Solution.Clone) to keep it beyond the
// callback.
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
			cap.commitStep(ws.x, ws.prev, dt, ts.opt.Trapezoid)
		}
		copy(ws.prev, ws.x)
	}
	if !ts.linear {
		for k := 1; k <= steps; k++ {
			t := float64(k) * dt
			tmpl := Stamper{
				Time:        t,
				Dt:          dt,
				Prev:        ws.prev,
				SrcScale:    1,
				Trapezoidal: ts.opt.Trapezoid,
			}
			if err := sv.newton(tmpl, ts.opt.Gmin); err != nil {
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
		SrcScale: 1, Trapezoidal: ts.opt.Trapezoid,
	}
	for _, e := range ts.c.elements {
		e.Stamp(&st)
	}
	for i := 0; i < nNodes; i++ {
		ws.a.Add(i, i, ts.opt.Gmin)
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
		case *Resistor, *VCVS, *VCCS:
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
			SrcScale: 1, Trapezoidal: ts.opt.Trapezoid,
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

// Transient runs a fixed-timestep transient analysis over [0, dur] with
// the given number of steps, materializing every solution. The initial
// condition is the DC operating point at t = 0. Campaign code that only
// needs a node waveform should prefer TransientSolver.Run, which streams
// steps without retaining them.
func Transient(c *Circuit, opt Options, dur float64, steps int) (*TransientResult, error) {
	ts := NewTransientSolver(c, opt)
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
