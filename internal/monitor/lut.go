package monitor

import (
	"math/bits"
	"sync"
)

// The batched classifier: Bank.ClassifyBatch answers per-point zone
// codes from a precomputed grid — the certified zone LUT — and falls
// back to the exact Bit evaluation wherever the table cannot *prove*
// the answer, so the batch API is bit-identical to the scalar one,
// point for point.
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
//   - corners must clear a margin (lutMarginA) far below any physical
//     monitor current but far above the ~1e-19 A discontinuity of the
//     softplus's numeric range switch, so the monotonicity argument
//     survives the implementation's branch boundaries;
//   - the grid spans [0,1)² with a power-of-two cell count, so the cell
//     index int(x·lutCells) is computed exactly (multiplication by a
//     power of two is exact in binary64) and a point can never be
//     attributed to a cell that does not contain it.
//
// # Separable construction
//
// Each input voltage follows x, follows y, or is DC, so each input's
// IDSat depends on at most one node coordinate. The build tabulates it
// once per grid node along that axis (4·(n+1) IDSat calls per monitor
// instead of 4·(n+1)²) and forms every node balance as
// (I0 + I1) − (I2 + I3) from the tables: the operands Balance computes
// at that node, combined in the order Balance combines them. Only the
// node's margin sign is kept. The proof does not need the node values to
// match Balance bit for bit: a rounding difference is ~1e-22 A on
// µA-scale currents, far inside the margin a node must clear, so it can
// never turn a certified sign into a wrong one.
//
// # Per-monitor proof and cell layout
//
// Every cell records which monitors its corners prove and their bits,
// packed into one uint32: the code bits of the proven monitors in the
// low 16 bits, the mask of proven monitors in the high 16. A point in a
// fully proven cell classifies by lookup; a point in a partly proven
// cell (one that a zone boundary crosses) evaluates Bit only for the
// monitors the cell leaves open: on the paper's bank, about one monitor
// of six. Points outside the grid take the full Classify.
// Banks that are not certifiable at all — a transistor-level Spice
// monitor in the bank, a drive pattern that mixes one axis across both
// branches, or more monitors than a cell has bits — skip the LUT and
// classify every point with the scalar path.

const (
	// lutCells is the zone LUT resolution per axis. Power of two, so the
	// cell index arithmetic below is exact.
	lutCells = 256
	// lutMarginA is the corner-balance magnitude (in amperes) below which
	// a monitor is left unproven in a cell. Monitor branch currents are on
	// the µA scale; the softplus range-switch discontinuity is below
	// 1e-18 A.
	lutMarginA = 1e-15
	// lutMaxMonitors is the largest bank a cell can describe: 16 code
	// bits below 16 proven-monitor bits.
	lutMaxMonitors = 16
	// lutCodeBits masks a cell's code bits.
	lutCodeBits = 1<<lutMaxMonitors - 1
)

// zoneLUT is one bank's certified classification grid over [0,1)².
type zoneLUT struct {
	all   uint32   // proven-monitor mask of a fully certified cell
	cells []uint32 // row-major [y][x]: code bits low, proven mask high
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

// nodeSigns fills sign[j·(n+1)+i] with the margin sign of the balance at
// grid node (i/n, j/n), n = lutCells. tab is scratch for one node row of
// the four input currents, 4·(n+1) values: an x-driven input's row holds
// IDSat at every node x, a DC input's row its constant IDSat, and a
// y-driven input's row is refilled with IDSat at each node row's y.
func (a *Analytic) nodeSigns(tab []float64, sign []int8) {
	const n, m = lutCells, lutCells + 1
	var cur [4][]float64
	for k, in := range a.cfg.Inputs {
		cur[k] = tab[k*m : (k+1)*m]
		if in.Kind == DriveY {
			continue
		}
		for c := range cur[k] {
			v := float64(c) / n
			cur[k][c] = a.devs[k].IDSat(in.Voltage(v, v))
		}
	}
	for j := 0; j < m; j++ {
		y := float64(j) / n
		for k, in := range a.cfg.Inputs {
			if in.Kind == DriveY {
				iy := a.devs[k].IDSat(y)
				for c := range cur[k] {
					cur[k][c] = iy
				}
			}
		}
		row := sign[j*m : (j+1)*m]
		i0, i1, i2, i3 := cur[0][:len(row)], cur[1][:len(row)], cur[2][:len(row)], cur[3][:len(row)]
		for i := range row {
			row[i] = marginSign((i0[i] + i1[i]) - (i2[i] + i3[i]))
		}
	}
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
	const n, m = lutCells, lutCells + 1
	l := &zoneLUT{all: 1<<uint(len(mons)) - 1, cells: make([]uint32, n*n)}
	tab := make([]float64, 4*m)
	sign := make([]int8, m*m)
	for mi, a := range mons {
		a.nodeSigns(tab, sign)
		ref := int8(a.refSign)
		proven := uint32(1) << uint(lutMaxMonitors+mi)
		bit := uint32(1) << uint(mi)
		for j := 0; j < n; j++ {
			lo, hi := sign[j*m:(j+1)*m], sign[(j+1)*m:(j+2)*m]
			row := l.cells[j*n : (j+1)*n]
			for i := range row {
				// Four corner signs in {-1, 0, 1} sum to ±4 exactly when
				// they share a strict sign.
				switch lo[i] + lo[i+1] + hi[i] + hi[i+1] {
				case 4 * ref: // the reference side: bit 0
					row[i] |= proven
				case -4 * ref:
					row[i] |= proven | bit
				}
			}
		}
	}
	return l
}

// marginSign is signum with the certification margin: balances inside
// ±lutMarginA count as boundary (0) and leave the monitor unproven.
func marginSign(v float64) int8 {
	switch {
	case v > lutMarginA:
		return 1
	case v < -lutMarginA:
		return -1
	default:
		return 0
	}
}

// lut returns the bank's zone LUT, building it once on first use (nil
// when the bank is not certifiable). Safe for concurrent use.
func (b *Bank) lut() *zoneLUT {
	b.lutOnce.Do(func() { b.zlut = b.buildLUT() })
	return b.zlut
}

// ClassifyBatch classifies every (xs[i], ys[i]) pair into codes[i]. It
// is bit-identical to calling Classify point by point. A point in a
// fully certified LUT cell answers by table lookup; in a partly
// certified cell only the monitors the cell leaves unproven evaluate
// Bit, the rest come from the table; points outside [0,1)² (or NaN) take
// the full Classify. Banks the LUT cannot certify (e.g. the
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
		if !(x >= 0 && x < 1 && y >= 0 && y < 1) {
			codes[i] = b.Classify(x, y)
			continue
		}
		cell := l.cells[int(y*lutCells)*lutCells+int(x*lutCells)]
		c := Code(cell & lutCodeBits)
		for open := l.all &^ (cell >> lutMaxMonitors); open != 0; open &= open - 1 {
			mi := bits.TrailingZeros32(open)
			if b.monitors[mi].Bit(x, y) == 1 {
				c |= 1 << uint(mi)
			}
		}
		codes[i] = c
	}
}

// BatchInfo builds the zone LUT if it is not built yet and reports
// whether ClassifyBatch runs on it for this bank and, if so, the
// fraction of grid cells that prove every monitor. Points in the other
// cells evaluate Bit for the monitors their cell leaves unproven.
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
