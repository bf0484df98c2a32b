package spice

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/num"
	"repro/internal/wave"
)

// CircuitTemplate is the trial-template engine behind SPICE-backed
// Monte-Carlo campaigns: one linear circuit, analyzed once, then reused
// across trials that differ only in element values and source
// waveforms. Construction pays the per-circuit setup exactly once —
// branch assignment, element classification, the RHS refresh program,
// the workspace — so a trial is just "refresh values → one stamp +
// LU factorization → per-step RHS solves":
//
//   - element values are mutated in place (SetResistance/SetCapacitance
//     /SetVSourceWaveform, or directly through the element pointers for
//     callers that built the netlist), preserving node numbering and
//     the symbolic stamp layout;
//   - the per-step RHS rebuild is compiled to a flat op list (capacitor
//     companions with a precomputed geq, source rows fed from cached
//     stimulus tick tables) instead of interface-dispatched restamps;
//   - the factored matrix is compiled to a num.SolveProgram, so the
//     per-step triangular solves skip the factors' structural zeros;
//   - stimulus tick tables (w.Eval at every step time) are cached per
//     (waveform, dt) across trials — and, via ShareTickCache, across
//     every worker template of a circuit family — amortizing the
//     transcendental calls a campaign re-evaluates thousands of times.
//
// Results are bit-identical to rebuilding the circuit and running
// TransientSolver.Run per trial (the regression-pinned rebuild path):
// every floating-point expression of that path is replicated with the
// same operand order. A template owns its circuit and workspace and is
// not safe for concurrent use — campaigns hold one per worker.
type CircuitTemplate struct {
	c    *Circuit
	opt  Options
	sv   *solver
	prog num.SolveProgram

	byName  map[string]Element
	caps    []capOp
	rhs     []rhsOp
	touched []int32 // RHS rows any op writes, zeroed per step
	ticks   *TickCache
}

// capOp is the per-trial companion state of one capacitor: its node
// rows and the geq = 2C/dt (trapezoidal) or C/dt (backward Euler)
// refreshed when dt or the capacitance changes.
type capOp struct {
	cap  *Capacitor
	p, m int32
	geq  float64
}

// rhsOp kinds. Capacitor kinds are fixed at construction; source kinds
// are refreshed per trial (a waveform can be attached or removed
// between trials).
const (
	opCapTrap = iota
	opCapBE
	opVSrcTick
	opVSrcDC
	opISrcTick
	opISrcDC
)

// rhsOp is one entry of the compiled per-step RHS refresh program, in
// netlist element order (the same order TransientSolver.Run restamps,
// so accumulation into shared rows stays bit-identical).
type rhsOp struct {
	kind int
	p, m int32 // node rows (m unused for V sources; p is the branch row)
	cap  *capOp
	vs   *VSource
	is   *ISource
	tick []float64
	dc   float64
	// scratch holds the per-trial tick table of a stateful (non-pure)
	// waveform, which must be re-evaluated every trial in step order.
	scratch []float64
}

// tickTable caches w.Eval(k·dt) for k = 0..len(vals)-1. Tables are
// keyed by (waveform, exact dt bits): trials with different settling
// spans can produce dt values that differ in the last bit, and the
// replayed Eval argument must be bit-equal to the rebuild path's.
type tickTable struct {
	w      wave.Waveform
	dtBits uint64
	vals   []float64
}

// maxTickTables bounds the cached tables (each is one float64 per
// step). Campaign blocks cycle through a handful of settling classes,
// so a short LRU covers every real hit pattern.
const maxTickTables = 4

// TickCache holds pure-waveform tick tables, shareable across templates
// and goroutines. Sharing is what makes the tick amortization stick:
// campaign workers rebuild their per-worker templates on every campaign
// invocation, but a cache hung off the long-lived circuit family keeps
// each settling class's transcendental grid — tens of thousands of
// stimulus Eval calls — computed once per process instead of once per
// worker per campaign. Lookups are mutex-guarded and cached tables are
// immutable (extending a table installs a fresh copy), so a table handed
// to one worker stays valid while others extend or evict the cache.
// Cache state never affects trial results, only who pays for the fill.
type TickCache struct {
	mu   sync.Mutex
	tabs []tickTable
}

// NewTickCache returns an empty shareable tick cache.
func NewTickCache() *TickCache { return &TickCache{} }

// ticksFor returns vals with vals[k] = w.Eval(k·dt) for k = 1..steps
// (vals[0] is unused and keeps the indexing aligned with step numbers).
// The returned slice may be longer than steps+1 when a longer trial of
// the same class filled it first; callers index only [1, steps].
func (tc *TickCache) ticksFor(w wave.Waveform, dt float64, steps int) []float64 {
	bits := math.Float64bits(dt)
	tc.mu.Lock()
	defer tc.mu.Unlock()
	for i := range tc.tabs {
		tb := tc.tabs[i]
		if tb.w == w && tb.dtBits == bits {
			if len(tb.vals) <= steps {
				// Extend into a fresh array: a worker holding the shorter
				// table must keep a stable view. The copied prefix is
				// bit-identical — Eval of a pure waveform is deterministic.
				vals := make([]float64, steps+1)
				copy(vals, tb.vals)
				for k := len(tb.vals); k <= steps; k++ {
					vals[k] = w.Eval(float64(k) * dt)
				}
				tb.vals = vals
			}
			if i != 0 { // move-to-front LRU
				copy(tc.tabs[1:i+1], tc.tabs[:i])
			}
			tc.tabs[0] = tb
			return tb.vals
		}
	}
	vals := make([]float64, steps+1)
	for k := 1; k <= steps; k++ {
		vals[k] = w.Eval(float64(k) * dt)
	}
	if len(tc.tabs) < maxTickTables {
		tc.tabs = append(tc.tabs, tickTable{})
	}
	copy(tc.tabs[1:], tc.tabs)
	tc.tabs[0] = tickTable{w: w, dtBits: bits, vals: vals}
	return vals
}

// NewCircuitTemplate builds a trial template over c. The circuit must
// be linear (no MOSFETs) and composed of the element kinds the RHS
// program understands (R, C, V/I sources, VCVS, VCCS); the template
// takes ownership — running other analyses on c while the template is
// live, or re-registering elements, invalidates it.
func NewCircuitTemplate(c *Circuit, opt Options) (*CircuitTemplate, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if !c.Linear() {
		return nil, fmt.Errorf("spice: circuit template requires a linear circuit")
	}
	t := &CircuitTemplate{
		c:      c,
		byName: make(map[string]Element, len(c.elements)),
		ticks:  NewTickCache(),
	}
	t.sv = newSolverWS(c, opt, nil) // assigns branches, sizes the workspace
	t.opt = t.sv.opt
	touched := map[int32]bool{}
	for _, e := range c.elements {
		if _, dup := t.byName[e.Name()]; !dup {
			t.byName[e.Name()] = e
		}
		switch el := e.(type) {
		case *Resistor, *VCVS, *VCCS:
			// Matrix-only elements: no per-step RHS contribution (the
			// same skip list as TransientSolver.Run's linear path).
		case *Capacitor:
			kind := opCapBE
			if t.opt.Trapezoid {
				kind = opCapTrap
			}
			t.caps = append(t.caps, capOp{cap: el, p: int32(el.P), m: int32(el.M)})
			t.rhs = append(t.rhs, rhsOp{kind: kind})
			markTouched(touched, int32(el.P), int32(el.M))
		case *VSource:
			t.rhs = append(t.rhs, rhsOp{kind: opVSrcDC, vs: el})
			markTouched(touched, int32(el.branch))
		case *ISource:
			t.rhs = append(t.rhs, rhsOp{kind: opISrcDC, is: el, p: int32(el.P), m: int32(el.M)})
			markTouched(touched, int32(el.P), int32(el.M))
		default:
			return nil, fmt.Errorf("spice: circuit template cannot compile element %s (%T)", e.Name(), e)
		}
	}
	// Link the capacitor ops only now that t.caps has its final backing
	// array (append may have moved earlier entries).
	ci := 0
	for i := range t.rhs {
		if t.rhs[i].kind == opCapTrap || t.rhs[i].kind == opCapBE {
			t.rhs[i].cap = &t.caps[ci]
			ci++
		}
	}
	//mclint:maporder collect-then-sort; sortInt32 below fixes the order before use
	for row := range touched {
		t.touched = append(t.touched, row)
	}
	sortInt32(t.touched)
	return t, nil
}

func markTouched(set map[int32]bool, rows ...int32) {
	for _, r := range rows {
		if r >= 0 {
			set[r] = true
		}
	}
}

func sortInt32(s []int32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// ShareTickCache makes t serve pure-waveform tick tables from tc instead
// of its private cache. Campaigns point every worker's template at one
// cache owned by the circuit family, so a settling class's tick grid is
// filled once and reused by all workers and all later campaigns. A nil
// tc is ignored.
func (t *CircuitTemplate) ShareTickCache(tc *TickCache) {
	if tc != nil {
		t.ticks = tc
	}
}

// SetResistance updates a resistor's value in place, with the same
// validation Circuit.Add would apply.
func (t *CircuitTemplate) SetResistance(name string, ohms float64) error {
	r, ok := t.byName[name].(*Resistor)
	if !ok {
		return fmt.Errorf("spice: template has no resistor %q", name)
	}
	old := r.Ohms
	r.Ohms = ohms
	if err := r.validate(); err != nil {
		r.Ohms = old
		return err
	}
	return nil
}

// SetCapacitance updates a capacitor's value in place, with the same
// validation Circuit.Add would apply.
func (t *CircuitTemplate) SetCapacitance(name string, farads float64) error {
	c, ok := t.byName[name].(*Capacitor)
	if !ok {
		return fmt.Errorf("spice: template has no capacitor %q", name)
	}
	old := c.Farads
	c.Farads = farads
	if err := c.validate(); err != nil {
		c.Farads = old
		return err
	}
	return nil
}

// SetVSourceWaveform re-drives a voltage source with w (its DC value
// becomes w.Eval(0), as VSource.SetWaveform documents).
func (t *CircuitTemplate) SetVSourceWaveform(name string, w wave.Waveform) error {
	v, ok := t.byName[name].(*VSource)
	if !ok {
		return fmt.Errorf("spice: template has no voltage source %q", name)
	}
	v.SetWaveform(w)
	return nil
}

// Trial describes one transient run on a template: integrate over
// [0, Dur] in Steps fixed steps from the DC operating point, recording
// the voltage of node Record at steps Start..Start+len(Out)-1 into Out
// (step 0 is the operating point, step k the solution at t = k·Dur/Steps
// — the same step indexing as TransientSolver.Run).
type Trial struct {
	Dur    float64
	Steps  int
	Record NodeID
	Start  int
	Out    []float64
}

// RunTrial executes one trial: refresh the compiled per-trial state
// from the current element values, solve the DC operating point, stamp
// and factor the (constant) MNA matrix once, then run the per-step
// RHS-refresh/solve loop. A warm trial — same circuit size, settling
// class already seen — allocates nothing.
func (t *CircuitTemplate) RunTrial(tr Trial) error {
	if tr.Steps < 1 {
		return fmt.Errorf("spice: transient needs at least 1 step")
	}
	if tr.Start < 0 || tr.Start+len(tr.Out) > tr.Steps+1 {
		return fmt.Errorf("spice: trial records steps [%d, %d) of %d", tr.Start, tr.Start+len(tr.Out), tr.Steps+1)
	}
	// Same per-run reset sequence as TransientSolver.Run.
	for i := range t.caps {
		t.caps[i].cap.prevCur = 0
	}
	sv := t.sv
	ws := sv.ws
	for i := range ws.x {
		ws.x[i] = 0
	}
	if err := sv.dcopWS(nil); err != nil {
		return fmt.Errorf("spice: transient initial OP: %w", err)
	}
	copy(ws.prev, ws.x)
	if tr.Start == 0 && len(tr.Out) > 0 {
		tr.Out[0] = rowVoltage(ws.x, int32(tr.Record))
	}
	dt := tr.Dur / float64(tr.Steps)
	// Stamp and factor the constant matrix exactly as the rebuild path's
	// linear fast path does.
	nNodes := t.c.NumNodes()
	ws.a.Zero()
	for i := range ws.b {
		ws.b[i] = 0
	}
	sv.st = Stamper{
		A: ws.a, B: ws.b, X: ws.x,
		Time: dt, Dt: dt, Prev: ws.prev,
		SrcScale: 1, Trapezoidal: t.opt.Trapezoid,
	}
	for _, e := range t.c.elements {
		e.Stamp(&sv.st)
	}
	for i := 0; i < nNodes; i++ {
		ws.a.Add(i, i, t.opt.Gmin)
	}
	if err := ws.factor(); err != nil {
		return fmt.Errorf("spice: singular MNA matrix: %w", err)
	}
	ws.lu.Compile(&t.prog)
	t.refresh(dt, tr.Steps)
	// The step loop zeroes only the rows the RHS program writes; clear
	// the full-stamp leftovers once so untouched rows stay exactly 0,
	// as the rebuild path's per-step full zeroing guarantees.
	for i := range ws.b {
		ws.b[i] = 0
	}
	t.runSteps(tr)
	return nil
}

// refresh recomputes the per-trial op state: capacitor geq for this dt,
// source kinds/levels, and the stimulus tick tables.
func (t *CircuitTemplate) refresh(dt float64, steps int) {
	for i := range t.caps {
		c := &t.caps[i]
		if t.opt.Trapezoid {
			c.geq = 2 * c.cap.Farads / dt
		} else {
			c.geq = c.cap.Farads / dt
		}
	}
	for i := range t.rhs {
		op := &t.rhs[i]
		switch {
		case op.vs != nil:
			op.p = int32(op.vs.branch)
			if w := op.vs.src.w; w != nil {
				op.kind = opVSrcTick
				op.tick = t.tickFor(w, dt, steps, op)
			} else {
				op.kind = opVSrcDC
				op.dc = op.vs.src.dc
			}
		case op.is != nil:
			if w := op.is.src.w; w != nil {
				op.kind = opISrcTick
				op.tick = t.tickFor(w, dt, steps, op)
			} else {
				op.kind = opISrcDC
				op.dc = op.is.src.dc
			}
		}
	}
}

// tickFor returns a table holding w.Eval(k·dt) for k = 1..steps. Pure
// waveforms come from the (possibly shared) tick cache; stateful
// waveforms (measurement noise) get the op's private table re-evaluated
// every trial, which preserves the rebuild path's one-Eval-per-step call
// sequence exactly.
func (t *CircuitTemplate) tickFor(w wave.Waveform, dt float64, steps int, op *rhsOp) []float64 {
	if !pureWaveform(w) {
		op.scratch = growTicks(op.scratch, steps+1)
		for k := 1; k <= steps; k++ {
			op.scratch[k] = w.Eval(float64(k) * dt)
		}
		return op.scratch
	}
	return t.ticks.ticksFor(w, dt, steps)
}

// growTicks resizes a tick buffer to n, reusing capacity and keeping
// existing entries.
func growTicks(vals []float64, n int) []float64 {
	if cap(vals) >= n {
		return vals[:n]
	}
	out := make([]float64, n)
	copy(out, vals)
	return out
}

// pureWaveform reports whether w's Eval is a pure function of t, making
// its tick table reusable across trials. Unknown and stateful types
// (wave.Noisy draws a fresh variate per Eval) are conservatively
// re-evaluated every trial.
func pureWaveform(w wave.Waveform) bool {
	switch w.(type) {
	case *wave.Multitone, wave.Sine, wave.DC, *wave.Sampled:
		return true
	default:
		return false
	}
}

// rowVoltage is Solution.VoltageAt on a raw solution vector.
func rowVoltage(x []float64, row int32) float64 {
	if row < 0 {
		return 0
	}
	return x[row]
}

// runSteps is the compiled step loop. Each step zeroes the touched RHS
// rows, replays the RHS program, solves through the compiled factors,
// commits the capacitor companion currents and records the window
// sample. b, x and prev alias the template workspace, with x/prev
// swapped by pointer after every step instead of the rebuild path's
// copy(prev, x) — the values are identical, only the memmove is saved.
//
//mclint:hotpath
func (t *CircuitTemplate) runSteps(tr Trial) {
	ws := t.sv.ws
	b, x, prev := ws.b, ws.x, ws.prev
	rhs, caps := t.rhs, t.caps
	trap := t.opt.Trapezoid
	for k := 1; k <= tr.Steps; k++ {
		for _, r := range t.touched {
			b[r] = 0
		}
		for i := range rhs {
			op := &rhs[i]
			switch op.kind {
			case opCapTrap:
				c := op.cap
				vPrev := rowVoltage(prev, c.p) - rowVoltage(prev, c.m)
				ieq := c.geq*vPrev + c.cap.prevCur
				if c.p >= 0 {
					b[c.p] += ieq
				}
				if c.m >= 0 {
					b[c.m] -= ieq
				}
			case opCapBE:
				c := op.cap
				vPrev := rowVoltage(prev, c.p) - rowVoltage(prev, c.m)
				ieq := c.geq * vPrev
				if c.p >= 0 {
					b[c.p] += ieq
				}
				if c.m >= 0 {
					b[c.m] -= ieq
				}
			case opVSrcTick:
				b[op.p] += op.tick[k]
			case opVSrcDC:
				b[op.p] += op.dc
			case opISrcTick:
				v := op.tick[k]
				if op.m >= 0 {
					b[op.m] += v
				}
				if op.p >= 0 {
					b[op.p] -= v
				}
			case opISrcDC:
				if op.m >= 0 {
					b[op.m] += op.dc
				}
				if op.p >= 0 {
					b[op.p] -= op.dc
				}
			}
		}
		t.prog.Solve(b, x)
		for i := range caps {
			c := &caps[i]
			v := rowVoltage(x, c.p) - rowVoltage(x, c.m)
			vPrev := rowVoltage(prev, c.p) - rowVoltage(prev, c.m)
			if trap {
				c.cap.prevCur = c.geq*(v-vPrev) - c.cap.prevCur
			} else {
				c.cap.prevCur = c.geq * (v - vPrev)
			}
		}
		prev, x = x, prev
		if idx := k - tr.Start; idx >= 0 && idx < len(tr.Out) {
			tr.Out[idx] = rowVoltage(prev, int32(tr.Record))
		}
	}
	// prev holds the final solution; mirror the rebuild path's
	// prev == x post-state regardless of the swap parity.
	copy(x, prev)
}
