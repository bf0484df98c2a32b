package num

// SolveProgram is a compiled form of an LU factorization's triangular
// solves. Circuit MNA factors are sparse — the Tow-Thomas system is
// ~60% structural zeros even after fill-in — but LU.Solve walks the
// dense rows and multiplies the zeros anyway. Compile records the
// nonzero entries of L and U once per factorization as flat index/value
// programs; Solve then replays exactly the multiply–subtract sequence
// of LU.Solve restricted to those entries, in the same order.
//
// Skipping an entry only ever drops a term of the form s -= 0·v, so the
// result is identical to LU.Solve for finite inputs, up to the sign of
// an exact floating-point zero (dropping "-0 -= +0" keeps -0 where the
// dense solve produces +0; the two compare equal under ==). The
// trial-template engine in internal/spice recompiles after every
// refactorization — pivoting and fill-in move with the values — and its
// bit-identity tests pin this equivalence against the dense path.
//
// A SolveProgram reuses its slices across Compile calls, so a warm
// factor→compile→solve trial loop is allocation-free. Like LU it is not
// safe for concurrent use.
type SolveProgram struct {
	n   int
	piv []int32

	// Forward substitution: for row i, the nonzero L(i,j), j < i, in
	// ascending j, stored in fwdIdx/fwdVal[fwdStart[i]:fwdStart[i+1]].
	fwdStart []int32
	fwdIdx   []int32
	fwdVal   []float64

	// Back substitution: for row i, the nonzero U(i,j), j > i, in
	// ascending j, plus the diagonal divisor.
	bwdStart []int32
	bwdIdx   []int32
	bwdVal   []float64
	diag     []float64
}

// Compile records the current factors into p. It must be re-run after
// every Factor/FactorInto: partial pivoting reorders rows and fill-in
// moves with the element values, so a stale program solves the wrong
// system.
func (f *LU) Compile(p *SolveProgram) {
	n := f.lu.Rows
	p.n = n
	p.piv = growInt32(p.piv, n)
	for i, pv := range f.piv {
		p.piv[i] = int32(pv)
	}
	p.fwdStart = growInt32(p.fwdStart, n+1)
	p.bwdStart = growInt32(p.bwdStart, n+1)
	p.diag = growFloat64(p.diag, n)
	p.fwdIdx = p.fwdIdx[:0]
	p.fwdVal = p.fwdVal[:0]
	p.bwdIdx = p.bwdIdx[:0]
	p.bwdVal = p.bwdVal[:0]
	for i := 0; i < n; i++ {
		row := f.lu.Data[i*n : (i+1)*n]
		p.fwdStart[i] = int32(len(p.fwdIdx))
		for j := 0; j < i; j++ {
			if l := row[j]; l != 0 {
				p.fwdIdx = append(p.fwdIdx, int32(j))
				p.fwdVal = append(p.fwdVal, l)
			}
		}
		p.bwdStart[i] = int32(len(p.bwdIdx))
		for j := i + 1; j < n; j++ {
			if u := row[j]; u != 0 {
				p.bwdIdx = append(p.bwdIdx, int32(j))
				p.bwdVal = append(p.bwdVal, u)
			}
		}
		p.diag[i] = row[i]
	}
	p.fwdStart[n] = int32(len(p.fwdIdx))
	p.bwdStart[n] = int32(len(p.bwdIdx))
}

// Solve solves A·x = b using the compiled factors, writing the result
// into x. Unlike LU.Solve, b and x must not alias: the permutation
// gathers b directly into x to skip the dense path's scratch copy.
//
//mclint:hotpath
func (p *SolveProgram) Solve(b, x []float64) {
	n := p.n
	if len(b) != n || len(x) != n {
		panic("num: SolveProgram dimension mismatch")
	}
	for i, pv := range p.piv {
		x[i] = b[pv]
	}
	// Per-row subslices let the compiler drop the bounds checks inside
	// the inner multiply–subtract loops; the operation order is exactly
	// the dense solve's.
	fwdStart, fwdIdx, fwdVal := p.fwdStart, p.fwdIdx, p.fwdVal
	for i := 1; i < n; i++ {
		s := x[i]
		lo, hi := fwdStart[i], fwdStart[i+1]
		idxs := fwdIdx[lo:hi]
		vals := fwdVal[lo:hi][:len(idxs)]
		for e, j := range idxs {
			s -= vals[e] * x[j]
		}
		x[i] = s
	}
	bwdStart, bwdIdx, bwdVal, diag := p.bwdStart, p.bwdIdx, p.bwdVal, p.diag
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		lo, hi := bwdStart[i], bwdStart[i+1]
		idxs := bwdIdx[lo:hi]
		vals := bwdVal[lo:hi][:len(idxs)]
		for e, j := range idxs {
			s -= vals[e] * x[j]
		}
		x[i] = s / diag[i]
	}
}

// growInt32 resizes s to n, reusing capacity (contents undefined).
func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// growFloat64 resizes s to n, reusing capacity (contents undefined).
func growFloat64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}
