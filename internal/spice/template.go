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
//   - the per-step RHS rebuild is compiled to a flat op list
//     (trapezoidal capacitor companions with a precomputed geq, source
//     rows fed from cached stimulus tick tables) instead of
//     interface-dispatched restamps;
//   - the factored matrix is compiled to a num.SolveProgram restricted
//     to the RHS rows the op list writes and the solution rows the step
//     loop reads (the capacitor nodes and the recorded node), so the
//     per-step triangular solves skip the factors' structural zeros and
//     every row no later step reads;
//   - stimulus tick tables (w.Eval at every step time) are cached per
//     (waveform, dt) across trials — and, via ShareTickCache, across
//     every worker template of a circuit family — amortizing the
//     transcendental calls a campaign re-evaluates thousands of times.
//
// It is the one production transient engine. Results are bit-identical
// to rebuilding the circuit and running TransientSolver.Run per trial
// (the rebuild oracle the tests pin it against): every floating-point
// expression of that path is replicated with the same operand order. A
// template owns its circuit and workspace and is not safe for
// concurrent use — campaigns hold one per worker.
type CircuitTemplate struct {
	c    *Circuit
	sv   *solver
	prog num.SolveProgram

	byName  map[string]Element
	caps    []capOp
	rhs     []rhsOp
	touched []int32 // RHS rows any op writes, zeroed per step
	reads   []int32 // solution rows the capacitor ops read from prev
	outRows []int32 // reads plus the trial's recorded row
	ticks   *TickCache
}

// capOp is the per-trial companion state of one capacitor: its node
// rows and the trapezoidal geq = 2C/dt, refreshed every trial.
type capOp struct {
	cap  *Capacitor
	p, m int32
	geq  float64
}

// rhsOp kinds. The capacitor kind is fixed at construction; source
// kinds are refreshed per trial (a waveform can be attached or removed
// between trials).
const (
	opCapTrap = iota
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
}

// tickTable caches w.Eval(k·dt) for k = 0..len(vals)-1. Tables are
// keyed by (waveform, exact dt bits): trials with different settling
// spans can produce dt values that differ in the last bit, and the
// replayed Eval argument must be bit-equal to the rebuild path's. The
// waveform key is compared with ==, which wave.Waveform's contract (a
// pure Eval on a comparable type) makes safe and exact.
type tickTable struct {
	w      wave.Waveform
	dtBits uint64
	vals   []float64
}

// maxTickTables bounds the cached tables (each is one float64 per
// step). Campaign blocks cycle through a handful of settling classes,
// so a short LRU covers every real hit pattern.
const maxTickTables = 4

// TickCache holds stimulus tick tables, shareable across templates
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
				// bit-identical — a waveform's Eval is a pure function of t.
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
// program understands (R, C, V/I sources, VCVS); the template takes
// ownership — running other analyses on c while the template is live,
// or re-registering elements, invalidates it.
func NewCircuitTemplate(c *Circuit) (*CircuitTemplate, error) {
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
	t.sv = newSolverWS(c, nil) // assigns branches, sizes the workspace
	touched, reads := map[int32]bool{}, map[int32]bool{}
	for _, e := range c.elements {
		if _, dup := t.byName[e.Name()]; !dup {
			t.byName[e.Name()] = e
		}
		switch el := e.(type) {
		case *Resistor, *VCVS:
			// Matrix-only elements: no per-step RHS contribution (the
			// same skip list as TransientSolver.Run's linear path).
		case *Capacitor:
			t.caps = append(t.caps, capOp{cap: el, p: int32(el.P), m: int32(el.M)})
			t.rhs = append(t.rhs, rhsOp{kind: opCapTrap})
			markTouched(touched, int32(el.P), int32(el.M))
			markTouched(reads, int32(el.P), int32(el.M))
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
		if t.rhs[i].kind == opCapTrap {
			t.rhs[i].cap = &t.caps[ci]
			ci++
		}
	}
	t.touched = sortedRows(touched)
	t.reads = sortedRows(reads)
	return t, nil
}

// sortedRows returns the rows of set in ascending order.
func sortedRows(set map[int32]bool) []int32 {
	rows := make([]int32, 0, len(set))
	//mclint:maporder collect-then-sort; sortInt32 below fixes the order before use
	for row := range set {
		rows = append(rows, row)
	}
	sortInt32(rows)
	return rows
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

// ShareTickCache makes t serve stimulus tick tables from tc instead
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
	if tr.Record < Ground || int(tr.Record) >= t.c.NumNodes() {
		return fmt.Errorf("spice: trial records node %d of %d", tr.Record, t.c.NumNodes())
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
		SrcScale: 1,
	}
	for _, e := range t.c.elements {
		e.Stamp(&sv.st)
	}
	for i := 0; i < nNodes; i++ {
		ws.a.Add(i, i, gmin)
	}
	if err := ws.factor(); err != nil {
		return fmt.Errorf("spice: singular MNA matrix: %w", err)
	}
	// The step loop reads the solution only at the capacitor nodes and
	// the recorded node, and the RHS is +0 off the touched rows and never
	// −0 (every row starts at +0 and only accumulates), so the restricted
	// program leaves those rows bit-identical to the full solve.
	t.outRows = append(t.outRows[:0], t.reads...)
	if tr.Record >= 0 {
		t.outRows = append(t.outRows, int32(tr.Record))
	}
	ws.lu.Compile(&t.prog, t.touched, t.outRows)
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
		c.geq = 2 * c.cap.Farads / dt
	}
	for i := range t.rhs {
		op := &t.rhs[i]
		switch {
		case op.vs != nil:
			op.p = int32(op.vs.branch)
			if w := op.vs.src.w; w != nil {
				op.kind = opVSrcTick
				op.tick = t.ticks.ticksFor(w, dt, steps)
			} else {
				op.kind = opVSrcDC
				op.dc = op.vs.src.dc
			}
		case op.is != nil:
			if w := op.is.src.w; w != nil {
				op.kind = opISrcTick
				op.tick = t.ticks.ticksFor(w, dt, steps)
			} else {
				op.kind = opISrcDC
				op.dc = op.is.src.dc
			}
		}
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
// copy(prev, x). The solve writes only the rows the loop reads, so the
// other rows of x and prev hold stale values the loop never reads; the
// next trial starts from a zeroed x.
//
//mclint:hotpath
func (t *CircuitTemplate) runSteps(tr Trial) {
	ws := t.sv.ws
	b, x, prev := ws.b, ws.x, ws.prev
	rhs, caps := t.rhs, t.caps
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
			c.cap.prevCur = c.geq*(v-vPrev) - c.cap.prevCur
		}
		prev, x = x, prev
		if idx := k - tr.Start; idx >= 0 && idx < len(tr.Out) {
			tr.Out[idx] = rowVoltage(prev, int32(tr.Record))
		}
	}
}
