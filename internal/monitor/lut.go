package monitor

import (
	"math/bits"
	"sync"

	"repro/internal/mos"
)

// The batched classifier: Bank.ClassifyBatch answers per-point zone
// codes from precomputed tables — the certified zone LUT — and falls
// back to the exact Bit evaluation wherever the tables cannot *prove*
// the answer, so the batch API is bit-identical to the scalar one,
// point for point. Bank.ClassifyLUT answers single points through the
// same per-point step; signature extraction bisects zone transitions
// with it after ClassifyBatch has classified the scan grid.
//
// # Certification argument
//
// Each analytic monitor's bit is the sign of its balance function
// Balance(x, y) = Σ_left IDSat(V_i) − Σ_right IDSat(V_i), where every
// input voltage V_i is x, y, or a DC constant. IDSat is nondecreasing in
// V_GS (it is 0.5·β·v_eff² with v_eff a nonnegative, nondecreasing
// softplus), so whenever all the inputs a given axis drives sit in one
// branch — true for every Table I configuration — Balance is monotone in
// x and monotone in y. A function monotone in each variable separately
// attains its extrema over an axis-aligned cell at the cell's corners;
// therefore, if the four corner balances of a cell share a strict sign,
// that sign — and hence the monitor's bit — holds over the entire closed
// cell.
//
// Two guards keep the proof airtight in floating point:
//
//   - a node proves a sign only when its balance clears a margin
//     (lutMarginA) far below any physical monitor current but far above
//     the ~1e-19 A discontinuity of the softplus's numeric range switch,
//     so the monotonicity argument survives the implementation's branch
//     boundaries;
//   - the grids span [0,1)² with power-of-two cell counts, so a cell
//     index int(x·n) is computed exactly (multiplication by a power of
//     two is exact in binary64) and a point can never be attributed to
//     a cell that does not contain it.
//
// # Staircases
//
// Balance is monotone in y, so along each column of a grid the nodes a
// monitor proves form one run at the bottom, with the sign the balance
// has below the boundary (−1 when y drives the left branch or nothing,
// +1 when it drives the right), and one run at the top with the other
// sign. The build certifies each monitor on a lutFine² grid by walking,
// column k by column k from the previous column's values, to pre(k),
// the end of the bottom run (node pre−1 is verified), and suf(k), the
// start of the top run (node suf is verified). Fine column i then keeps
// lo(i) = min(pre(i), pre(i+1)) − 1 and hi(i) = max(suf(i), suf(i+1)):
// its cells j < lo prove the bottom sign, cells j ≥ hi the top sign, and
// the cells between are open. A running min of lo and a running max of
// hi along the way the boundary moves in x (the envelope) make both
// monotone in i, so the worst column of any column range is one of its
// two ends. One uint32 per column holds lo | hi<<16.
//
// Four facts keep every answer certified:
//
//   - a node whose computed balance clears lutMarginA has that true sign
//     (the rounding error is ~1e-22 A on µA-scale currents);
//   - true monotonicity gives that sign to every node beyond it in its
//     column: below a verified bottom node, above a verified top node;
//   - a fine cell whose four corners are all covered this way has the
//     sign on the whole closed cell (the corner argument);
//   - where computed values are not monotone, the walks stop early and
//     the envelope lowers lo and raises hi, which only shrinks what is
//     proven.
//
// Node currents are tabulated, not recomputed: one Veff row per
// distinct mos.Params at the nodes k/lutFine, one IDSat row per
// distinct driven device formed from it as IDSat forms it, and a DC
// input's stored current. Node balances combine them as
// (I0 + I1) − (I2 + I3), Balance's operands in Balance's order. Each
// monitor certifies in O(lutFine) node balances.
//
// # Coarse table and per-point path
//
// A lutCells² coarse table, 32 fine cells a side per entry, is derived
// from the staircases: each entry holds the code bits of the monitors
// the staircases prove over its whole box in the low 16 bits and their
// mask in the high 16. A point in a fully proven coarse cell classifies
// with one load. In a partly proven cell (one that a zone boundary
// crosses) each monitor the cell leaves open reads its staircase at the
// point's fine cell, int(x·lutCells) = int(x·lutFine)>>5 exactly, and
// evaluates Bit only where that cell is open too. A point outside the
// grid lies in no cell, so nothing is proven and it evaluates every
// monitor's Bit: the full Classify. Banks that are not certifiable at
// all — a transistor-level Spice monitor in the bank, a drive pattern
// that mixes one axis across both branches, or more monitors than a
// cell has bits — skip the LUT and classify every point with the
// scalar path.
//
// # Rectangle query
//
// Bank.ProveRect serves a caller that knows only a box holding its
// points: a scan block whose coordinates are bounded by interpolation,
// or one point whose y is. A point (x, y) of the closed rectangle
// [xlo, xhi] × [ylo, yhi] on the grid lies in fine cell
// (int(x·lutFine), int(y·lutFine)), and the index arithmetic is exact
// and monotone, so that cell is one of those from columns
// int(xlo·lutFine) to int(xhi·lutFine) by rows int(ylo·lutFine) to
// int(yhi·lutFine). Each monitor's staircase is monotone, so the
// monitor is proven on all of them exactly when its two end columns
// prove the rectangle's rows with one sign: O(1) per monitor. The
// closed-cell argument gives each proven monitor's bit to every point
// of the rectangle, and it is the bit ClassifyBatch returns at any of
// them; ProveRect returns those bits and the mask of the monitors left
// open. Bank.ClassifyRect is the query over every monitor, answering
// only when none is left open.

const (
	// lutCells is the coarse table's resolution per axis and lutFine the
	// staircases'. Both are powers of two, so the cell index arithmetic
	// below is exact, and lutFine/lutCells = 32 fine cells make a coarse
	// cell's side: int(x·lutCells) = int(x·lutFine)>>5.
	lutCells = 128
	lutFine  = 4096
	// lutMarginA is the node-balance magnitude (in amperes) below which a
	// node proves nothing. Monitor branch currents are on the µA scale;
	// the softplus range-switch discontinuity is below 1e-18 A.
	lutMarginA = 1e-15
	// lutMaxMonitors is the largest bank a cell can describe: 16 code
	// bits below 16 proven-monitor bits.
	lutMaxMonitors = 16
	// lutCodeBits masks a cell's code bits, and a staircase entry's lo.
	lutCodeBits = 1<<lutMaxMonitors - 1
)

// zoneLUT is one bank's certified classification grid over [0,1)².
type zoneLUT struct {
	all    uint32   // proven-monitor mask of a fully certified cell
	bottom uint32   // code bits the monitors take below their boundaries
	cells  []uint32 // coarse, row-major [y][x]: code bits low, proven mask high
	stairs []uint32 // [monitor][fine column]: lo | hi<<16
}

// lutMonotone reports whether this monitor's balance is monotone in each
// plane axis: every input a given axis drives must sit in a single
// branch (left M1/M2 or right M3/M4). With IDSat nondecreasing in V_GS
// this makes Balance monotone in x and in y, which is what lets corner
// signs certify a whole cell. All six Table I configurations qualify.
func (a *Analytic) lutMonotone() bool {
	for _, kind := range []InputKind{DriveX, DriveY} {
		left, right := false, false
		for i, in := range a.cfg.Inputs {
			if in.Kind != kind {
				continue
			}
			if i < 2 {
				left = true
			} else {
				right = true
			}
		}
		if left && right {
			return false
		}
	}
	return true
}

// lutDrive returns the margin sign of this monitor's balance below its
// boundary and whether the boundary falls as x grows. An input on the
// left branch raises the balance, one on the right lowers it; an axis
// that drives no input leaves it flat and counts as left.
func (a *Analytic) lutDrive() (bottom float64, down bool) {
	left := func(kind InputKind) bool {
		for i, in := range a.cfg.Inputs {
			if in.Kind == kind {
				return i < 2
			}
		}
		return true
	}
	bottom = -1
	if !left(DriveY) {
		bottom = 1
	}
	return bottom, left(DriveX) == left(DriveY)
}

// buildLUT constructs the certified zone LUT, or returns nil when the
// bank is not certifiable (non-analytic monitors, a drive pattern
// without per-axis monotonicity, or more than lutMaxMonitors monitors).
func (b *Bank) buildLUT() *zoneLUT {
	if len(b.monitors) > lutMaxMonitors {
		return nil
	}
	mons := make([]*Analytic, len(b.monitors))
	for i, m := range b.monitors {
		a, ok := m.(*Analytic)
		if !ok || !a.lutMonotone() {
			return nil
		}
		mons[i] = a
	}
	l := &zoneLUT{
		all:    1<<uint(len(mons)) - 1,
		cells:  make([]uint32, lutCells*lutCells),
		stairs: make([]uint32, len(mons)*lutFine),
	}
	// idsat returns a driven device's IDSat at the nodes k/lutFine, formed
	// as IDSat forms it from one Veff row per distinct mos.Params.
	veffs, rows := map[mos.Params][]float64{}, map[mos.Device][]float64{}
	idsat := func(d mos.Device) []float64 {
		d.Name = ""
		if r, ok := rows[d]; ok {
			return r
		}
		ve, ok := veffs[d.P]
		if !ok {
			ve = make([]float64, lutFine+1)
			for k := range ve {
				ve[k] = d.P.Veff(float64(k) / lutFine)
			}
			veffs[d.P] = ve
		}
		r := make([]float64, lutFine+1)
		for k, v := range ve {
			r[k] = d.IDSatVeff(v)
		}
		rows[d] = r
		return r
	}
	lo, hi := make([]int32, lutFine), make([]int32, lutFine)
	for mi, a := range mons {
		// cur[i] is input i's current at the nodes it follows; a DC
		// input's one stored current sits at index at[DriveDC] = 0.
		var cur [4][]float64
		var kind [4]InputKind
		for i, in := range a.cfg.Inputs {
			kind[i] = in.Kind
			if in.Kind == DriveDC {
				cur[i] = a.dc[i : i+1]
			} else {
				cur[i] = idsat(a.devs[i])
			}
		}
		bal := func(k, j int) float64 {
			at := [3]int{DriveX: k, DriveY: j}
			return (cur[0][at[kind[0]]] + cur[1][at[kind[1]]]) - (cur[2][at[kind[2]]] + cur[3][at[kind[3]]])
		}
		bottom, down := a.lutDrive()
		staircase(l.stairs[mi*lutFine:(mi+1)*lutFine], lo, hi, bal, bottom, down)
		if int(bottom) != a.refSign {
			l.bottom |= 1 << uint(mi)
		}
	}
	// A coarse cell's entry is prove's answer for its side² fine cells: a
	// monitor is proven in coarse rows j with side·j+side−1 < lo and in
	// rows with side·j ≥ hi, lo and hi taken at the column's end columns.
	const side = lutFine / lutCells
	var jlo, jhi [lutCells]int
	for mi := range mons {
		st, m := l.stairs[mi*lutFine:], uint32(1)<<uint(mi)
		for i := range jlo {
			s, t := st[i*side], st[i*side+side-1]
			jlo[i] = int(min(s&lutCodeBits, t&lutCodeBits)) / side
			jhi[i] = (int(max(s>>16, t>>16)) + side - 1) / side
		}
		for j := 0; j < lutCells; j++ {
			row := l.cells[j*lutCells : (j+1)*lutCells]
			for i := range row {
				switch {
				case j < jlo[i]:
					row[i] |= m<<lutMaxMonitors | l.bottom&m
				case j >= jhi[i]:
					row[i] |= m<<lutMaxMonitors | ^l.bottom&m
				}
			}
		}
	}
	return l
}

// staircase fills st with one monitor's certified staircase over an
// n×n grid of cells, n = len(st), from the balances bal(k, j) of its
// (n+1)² nodes: column k, row j. bottom (±1) is the balance's sign
// below the boundary. Cells j < lo(i) of column i prove that sign and
// cells j ≥ hi(i) its negation. lo and hi are scratch of length n.
func staircase(st []uint32, lo, hi []int32, bal func(k, j int) float64, bottom float64, down bool) {
	n := len(st)
	// proves reports whether node (k, j) verifies sign s: its balance
	// clears the margin on that side (NaN verifies nothing).
	proves := func(s float64, k, j int) bool { return s*bal(k, j) > lutMarginA }
	// Nodes below pre and from suf up carry the bottom and the top sign:
	// nodes pre−1 and suf are verified, the rest follow by monotonicity
	// in y. Each column's walk starts from the last column's result.
	pre, suf := 0, n+1
	var pre0, suf0 int
	for k := 0; k <= n; k++ {
		if pre > 0 && !proves(bottom, k, pre-1) {
			for pre--; pre > 0 && !proves(bottom, k, pre-1); pre-- {
			}
		} else {
			for pre <= n && proves(bottom, k, pre) {
				pre++
			}
		}
		if suf <= n && !proves(-bottom, k, suf) {
			for suf++; suf <= n && !proves(-bottom, k, suf); suf++ {
			}
		} else {
			for suf > 0 && proves(-bottom, k, suf-1) {
				suf--
			}
		}
		if k > 0 {
			lo[k-1] = int32(max(min(pre0, pre)-1, 0))
			hi[k-1] = int32(max(suf0, suf))
		}
		pre0, suf0 = pre, suf
	}
	// The envelope: lo and hi fall along the boundary's way (rise
	// against it), so a column range's worst column is one of its ends.
	if down {
		for i := 1; i < n; i++ {
			lo[i] = min(lo[i], lo[i-1])
		}
		for i := n - 2; i >= 0; i-- {
			hi[i] = max(hi[i], hi[i+1])
		}
	} else {
		for i := n - 2; i >= 0; i-- {
			lo[i] = min(lo[i], lo[i+1])
		}
		for i := 1; i < n; i++ {
			hi[i] = max(hi[i], hi[i-1])
		}
	}
	for i := range st {
		st[i] = uint32(lo[i]) | uint32(hi[i])<<16
	}
}

// prove reports whether monitor mi's staircase proves every fine cell of
// columns i0 … i1 by rows j0 … j1, and the code bit it proves there.
//
//mclint:hotpath
func (l *zoneLUT) prove(mi, i0, i1, j0, j1 int) (bit uint32, ok bool) {
	s, t := l.stairs[mi*lutFine+i0], l.stairs[mi*lutFine+i1]
	m := uint32(1) << uint(mi)
	switch {
	case j1 < int(min(s&lutCodeBits, t&lutCodeBits)):
		return l.bottom & m, true
	case j0 >= int(max(s>>16, t>>16)):
		return ^l.bottom & m, true
	}
	return 0, false
}

// lut returns the bank's zone LUT, building it once on first use (nil
// when the bank is not certifiable). Safe for concurrent use.
func (b *Bank) lut() *zoneLUT {
	b.lutOnce.Do(func() { b.zlut = b.buildLUT() })
	return b.zlut
}

// ClassifyBatch classifies every (xs[i], ys[i]) pair into codes[i]. It
// is bit-identical to calling Classify point by point. A point in a
// fully certified coarse cell answers by table lookup; in a partly
// certified cell the monitors the cell leaves unproven read their
// staircases and evaluate Bit only where those leave the point open
// too; points outside [0,1)² (or NaN) take the full Classify. Banks the LUT cannot certify (e.g. the
// transistor-level Spice bank) classify every point through Classify.
//
// The three slices must have equal length. After the one-time LUT
// construction the call performs no allocations.
//
//mclint:hotpath
func (b *Bank) ClassifyBatch(xs, ys []float64, codes []Code) {
	if len(xs) != len(ys) || len(codes) != len(xs) {
		panic("monitor: ClassifyBatch needs equal-length xs, ys and codes")
	}
	l := b.lut()
	if l == nil {
		for i := range xs {
			codes[i] = b.Classify(xs[i], ys[i])
		}
		return
	}
	for i, x := range xs {
		y := ys[i]
		c, open := l.lookup(x, y)
		if open != 0 {
			c = b.openBits(l, c, open, x, y)
		}
		codes[i] = c
	}
}

// ClassifyLUT is ClassifyBatch for one point: bit-identical to Classify,
// answered through the zone LUT where the bank has one. It builds the
// LUT on first use, as ClassifyBatch does, so it belongs where the bank
// classifies grids anyway: signature extraction bisects the transitions
// a ClassifyBatch scan has bracketed. After the one-time LUT
// construction the call performs no allocations.
//
//mclint:hotpath
func (b *Bank) ClassifyLUT(x, y float64) Code {
	l := b.lut()
	if l == nil {
		return b.Classify(x, y)
	}
	c, open := l.lookup(x, y)
	if open != 0 {
		c = b.openBits(l, c, open, x, y)
	}
	return c
}

// ClassifyRect returns the code of every point of the closed rectangle
// [xlo, xhi] × [ylo, yhi] when the zone LUT proves it, and false
// otherwise: ProveRect over every monitor, succeeding exactly when it
// leaves none open. It builds the LUT on first use and then performs no
// allocations.
//
//mclint:hotpath
func (b *Bank) ClassifyRect(xlo, xhi, ylo, yhi float64) (Code, bool) {
	c, open := b.ProveRect(xlo, xhi, ylo, yhi, ^uint32(0))
	if open != 0 {
		return 0, false
	}
	return c, true
}

// ProveRect settles the monitors of the mask want over the closed
// rectangle [xlo, xhi] × [ylo, yhi]: it returns the code bits of those
// whose staircase proves the rectangle, which each point of it has, and
// the mask of those it leaves open. Bits of want past the bank's
// monitors are dropped. NaN or ±Inf, a rectangle off the grid or
// reversed, or a bank without a LUT leave all of want open. It builds
// the LUT on first use and then performs no allocations.
//
//mclint:hotpath
func (b *Bank) ProveRect(xlo, xhi, ylo, yhi float64, want uint32) (proven Code, open uint32) {
	want &= uint32(1)<<uint(len(b.monitors)) - 1
	l := b.lut()
	if l == nil || !(xlo >= 0 && xlo <= xhi && xhi < 1 && ylo >= 0 && ylo <= yhi && yhi < 1) {
		return 0, want
	}
	i0, i1, j0, j1 := int(xlo*lutFine), int(xhi*lutFine), int(ylo*lutFine), int(yhi*lutFine)
	for m := want; m != 0; m &= m - 1 {
		mi := bits.TrailingZeros32(m)
		if bit, ok := l.prove(mi, i0, i1, j0, j1); ok {
			proven |= Code(bit)
		} else {
			open |= 1 << uint(mi)
		}
	}
	return proven, open
}

// lookup is the per-point LUT step of ClassifyBatch and ClassifyLUT: it
// returns the code bits of the monitors the coarse cell holding (x, y)
// proves and the mask of the monitors it leaves open, for openBits to
// settle. A point off the [0,1)² grid (or NaN) lies in no cell and
// proves nothing, so every monitor is open: openBits then computes
// exactly Classify. lookup makes no call, so it inlines into the batch
// loop, which then calls out only for points with open monitors.
//
//mclint:hotpath
func (l *zoneLUT) lookup(x, y float64) (proven Code, open uint32) {
	var cell uint32
	if x >= 0 && x < 1 && y >= 0 && y < 1 {
		cell = l.cells[int(y*lutCells)*lutCells+int(x*lutCells)]
	}
	return Code(cell & lutCodeBits), l.all &^ (cell >> lutMaxMonitors)
}

// openBits returns c with the bit of every monitor in the open mask
// settled at (x, y), in monitor order: from the monitor's staircase
// where it proves the fine cell holding the point, else by Bit. A point
// off the grid lies in no cell and takes Bit throughout.
//
//mclint:hotpath
func (b *Bank) openBits(l *zoneLUT, c Code, open uint32, x, y float64) Code {
	on := x >= 0 && x < 1 && y >= 0 && y < 1
	i, j := int(x*lutFine), int(y*lutFine)
	for ; open != 0; open &= open - 1 {
		mi := bits.TrailingZeros32(open)
		if on {
			if bit, ok := l.prove(mi, i, i, j, j); ok {
				c |= Code(bit)
				continue
			}
		}
		if b.monitors[mi].Bit(x, y) == 1 {
			c |= 1 << uint(mi)
		}
	}
	return c
}

// BatchInfo builds the zone LUT if it is not built yet and reports
// whether ClassifyBatch runs on it for this bank and, if so, the
// fraction of coarse cells that prove every monitor. Points in the other
// cells settle the monitors their cell leaves unproven through the
// staircases, and evaluate Bit where those leave them open.
func (b *Bank) BatchInfo() (lutEnabled bool, certifiedFrac float64) {
	l := b.lut()
	if l == nil {
		return false, 0
	}
	full := 0
	for _, c := range l.cells {
		if c>>lutMaxMonitors == l.all {
			full++
		}
	}
	return true, float64(full) / float64(len(l.cells))
}

// lutState carries the lazily built zone LUT of a bank.
type lutState struct {
	lutOnce sync.Once
	zlut    *zoneLUT
}
