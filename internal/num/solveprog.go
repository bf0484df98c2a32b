package num

// SolveProgram is a compiled form of an LU factorization's triangular
// solves. Circuit MNA factors are sparse — the Tow-Thomas system is
// ~60% structural zeros even after fill-in — but LU.Solve walks the
// dense rows and multiplies the zeros anyway. Compile records, once per
// factorization, the entries of L and U a solve needs as flat
// index/value programs; Solve then replays the multiply–subtract
// sequence of LU.Solve restricted to those entries, in the same order.
//
// A program may also be restricted to a sparse right-hand side and a
// partial read of the solution (the symbolic reach of a sparse
// triangular solve, Gilbert & Peierls 1988): Compile is told which rows
// of b may be nonzero (in) and which rows of x the caller reads (out).
// The forward pass then keeps only the rows some needed row reads and
// only the terms whose x[j] is reached from an in row; the backward
// pass keeps only the rows out reaches through U.
//
// The restriction never moves a bit of an out row. An entry is dropped
// only when its coefficient is zero or its x[j] is structurally zero:
// reached from no in row, x[j] is exactly +0 after the forward pass and
// ±0 after the backward division, for finite factors. Either way the
// dropped term is an exact ±0. Every accumulator starts at a row of b,
// which holds no −0, and a sum or difference that starts off −0 stays
// off −0 (an exact cancellation rounds to +0), so s − (±0) = s at every
// dropped term. The same argument covers the unrestricted program.
//
// A SolveProgram reuses its slices across Compile calls, so a warm
// factor→compile→solve trial loop is allocation-free. Like LU it is not
// safe for concurrent use.
type SolveProgram struct {
	n int

	// Gather: x[gatherRow[k]] = b[gatherSrc[k]], the permuted rows the
	// forward pass needs.
	gatherRow []int32
	gatherSrc []int32

	// Forward substitution: row fwdRow[r] subtracts L(i,j)·x[j] for the
	// entries fwdIdx/fwdVal[fwdStart[r]:fwdStart[r+1]], in ascending j.
	fwdRow   []int32
	fwdStart []int32
	fwdIdx   []int32
	fwdVal   []float64

	// Back substitution: row bwdRow[r], in descending row order,
	// subtracts U(i,j)·x[j] in ascending j and divides by diag[r].
	bwdRow   []int32
	bwdStart []int32
	bwdIdx   []int32
	bwdVal   []float64
	diag     []float64

	// flags is Compile's per-row scratch (the row-set bits below).
	flags []uint8
}

// Compile's row flags. flagIn is indexed by a row of b; the others by a
// row of the permuted system, which is also the row of x.
const (
	flagIn   uint8 = 1 << iota // b's row may be nonzero
	flagFwd                    // x's row is nonzero after the forward pass
	flagBwd                    // x's row is nonzero after the backward pass
	flagOut                    // the backward pass computes x's row
	flagRead                   // the forward pass computes x's row
)

// Compile records the current factors into p, restricted to the rows of
// b in may hold nonzero (nil: every row) and the rows of x out names
// (nil: every row). Solve then leaves the out rows bit-identical to
// LU.Solve for finite inputs whose b is zero off in and holds no −0;
// every other row of x is unspecified after Solve. With nil, nil the
// program is the whole solve, bit-identical to LU.Solve on every row
// under the same input conditions.
//
// Compile must be re-run after every Factor/FactorInto: partial
// pivoting reorders rows and fill-in moves with the element values, so
// a stale program solves the wrong system. It panics on a row index
// outside [0, Dim()).
func (f *LU) Compile(p *SolveProgram, in, out []int32) {
	n := f.lu.Rows
	lu := f.lu.Data
	p.n = n
	p.flags = growUint8(p.flags, n)
	flags := p.flags
	for i := range flags {
		flags[i] = 0
	}
	markRows(flags, in, flagIn)
	markRows(flags, out, flagOut)

	// Structural nonzeros: the forward pass reaches row i from an in row
	// through the permutation and L; the backward pass from a forward
	// nonzero through U.
	for i := 0; i < n; i++ {
		nz := flags[f.piv[i]]&flagIn != 0
		for j := 0; j < i && !nz; j++ {
			nz = lu[i*n+j] != 0 && flags[j]&flagFwd != 0
		}
		if nz {
			flags[i] |= flagFwd
		}
	}
	for i := n - 1; i >= 0; i-- {
		nz := flags[i]&flagFwd != 0
		for j := i + 1; j < n && !nz; j++ {
			nz = lu[i*n+j] != 0 && flags[j]&flagBwd != 0
		}
		if nz {
			flags[i] |= flagBwd
		}
	}
	// Needed rows: the backward pass computes the out rows and every row
	// they read through U; the forward pass, every row the backward pass
	// starts from and every row those read through L.
	for i := 0; i < n; i++ {
		if flags[i]&flagOut == 0 {
			continue
		}
		for j := i + 1; j < n; j++ {
			if lu[i*n+j] != 0 && flags[j]&flagBwd != 0 {
				flags[j] |= flagOut
			}
		}
	}
	for i := n - 1; i >= 0; i-- {
		if flags[i]&flagOut != 0 {
			flags[i] |= flagRead
		}
		if flags[i]&flagRead == 0 {
			continue
		}
		for j, l := range lu[i*n : i*n+i] {
			if l != 0 && flags[j]&flagFwd != 0 {
				flags[j] |= flagRead
			}
		}
	}

	p.gatherRow, p.gatherSrc = p.gatherRow[:0], p.gatherSrc[:0]
	p.fwdRow, p.fwdStart, p.fwdIdx, p.fwdVal = p.fwdRow[:0], p.fwdStart[:0], p.fwdIdx[:0], p.fwdVal[:0]
	p.bwdRow, p.bwdStart, p.bwdIdx, p.bwdVal, p.diag = p.bwdRow[:0], p.bwdStart[:0], p.bwdIdx[:0], p.bwdVal[:0], p.diag[:0]
	for i := 0; i < n; i++ {
		if flags[i]&flagRead == 0 {
			continue
		}
		p.gatherRow = append(p.gatherRow, int32(i))
		p.gatherSrc = append(p.gatherSrc, int32(f.piv[i]))
		start := len(p.fwdIdx)
		for j, l := range lu[i*n : i*n+i] {
			if l != 0 && flags[j]&flagFwd != 0 {
				p.fwdIdx = append(p.fwdIdx, int32(j))
				p.fwdVal = append(p.fwdVal, l)
			}
		}
		// A row left with no term keeps its gathered value.
		if len(p.fwdIdx) > start {
			p.fwdRow = append(p.fwdRow, int32(i))
			p.fwdStart = append(p.fwdStart, int32(start))
		}
	}
	p.fwdStart = append(p.fwdStart, int32(len(p.fwdIdx)))
	for i := n - 1; i >= 0; i-- {
		if flags[i]&flagOut == 0 {
			continue
		}
		p.bwdRow = append(p.bwdRow, int32(i))
		p.bwdStart = append(p.bwdStart, int32(len(p.bwdIdx)))
		for j := i + 1; j < n; j++ {
			if u := lu[i*n+j]; u != 0 && flags[j]&flagBwd != 0 {
				p.bwdIdx = append(p.bwdIdx, int32(j))
				p.bwdVal = append(p.bwdVal, u)
			}
		}
		p.diag = append(p.diag, lu[i*n+i])
	}
	p.bwdStart = append(p.bwdStart, int32(len(p.bwdIdx)))
}

// markRows sets bit on flags[r] for every r in rows, or on every flag
// when rows is nil.
func markRows(flags []uint8, rows []int32, bit uint8) {
	if rows == nil {
		for i := range flags {
			flags[i] |= bit
		}
		return
	}
	for _, r := range rows {
		flags[r] |= bit
	}
}

// Solve solves A·x = b using the compiled factors, writing the program's
// out rows of the result into x (every row, for an unrestricted
// program). Unlike LU.Solve, b and x must not alias: the permutation
// gathers b directly into x to skip the dense path's scratch copy.
//
//mclint:hotpath
func (p *SolveProgram) Solve(b, x []float64) {
	if len(b) != p.n || len(x) != p.n {
		panic("num: SolveProgram dimension mismatch")
	}
	gatherSrc := p.gatherSrc[:len(p.gatherRow)]
	for k, i := range p.gatherRow {
		x[i] = b[gatherSrc[k]]
	}
	// Per-row subslices let the compiler drop the bounds checks inside
	// the inner multiply–subtract loops; the operation order is exactly
	// the dense solve's.
	fwdStart, fwdIdx, fwdVal := p.fwdStart, p.fwdIdx, p.fwdVal
	for r, i := range p.fwdRow {
		s := x[i]
		lo, hi := fwdStart[r], fwdStart[r+1]
		idxs := fwdIdx[lo:hi]
		vals := fwdVal[lo:hi][:len(idxs)]
		for e, j := range idxs {
			s -= vals[e] * x[j]
		}
		x[i] = s
	}
	bwdStart, bwdIdx, bwdVal := p.bwdStart, p.bwdIdx, p.bwdVal
	diag := p.diag[:len(p.bwdRow)]
	for r, i := range p.bwdRow {
		s := x[i]
		lo, hi := bwdStart[r], bwdStart[r+1]
		idxs := bwdIdx[lo:hi]
		vals := bwdVal[lo:hi][:len(idxs)]
		for e, j := range idxs {
			s -= vals[e] * x[j]
		}
		x[i] = s / diag[r]
	}
}

// growUint8 resizes s to n, reusing capacity (contents undefined).
func growUint8(s []uint8, n int) []uint8 {
	if cap(s) < n {
		return make([]uint8, n)
	}
	return s[:n]
}
