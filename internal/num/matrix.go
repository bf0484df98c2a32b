// Package num provides the small dense linear-algebra and root-finding
// kernel used by the circuit simulator and the statistics substrate.
//
// The package is deliberately minimal: dense row-major matrices, LU
// factorization with partial pivoting, triangular solves, and a handful of
// vector helpers. Everything is float64 and allocation-conscious so the
// Newton-Raphson loop in internal/spice can reuse workspaces.
package num

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorization or solve meets a pivot that
// is exactly zero (or smaller than the configured tolerance).
var ErrSingular = errors.New("num: matrix is singular")

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix returns a zeroed r×c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic("num: negative matrix dimension")
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add accumulates v into the element at row i, column j.
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Zero clears every element in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// CopyFrom copies src into m; dimensions must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic("num: CopyFrom dimension mismatch")
	}
	copy(m.Data, src.Data)
}

// MulVec computes y = m·x. y must have length m.Rows and x length m.Cols.
func (m *Matrix) MulVec(x, y []float64) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic("num: MulVec dimension mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, xv := range x {
			s += row[j] * xv
		}
		y[i] = s
	}
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	s := ""
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			s += fmt.Sprintf("% .6g\t", m.At(i, j))
		}
		s += "\n"
	}
	return s
}

// LU holds an in-place LU factorization with partial pivoting of a square
// matrix: PA = LU, with L unit lower triangular stored below the diagonal.
// The factorization owns a solve scratch vector, so repeated Solve calls
// (the per-step hot path of a linear transient analysis) are
// allocation-free; like the workspaces in internal/spice it is not safe
// for concurrent use.
type LU struct {
	lu   *Matrix
	piv  []int
	sign int
	tmp  []float64
}

// Dim returns the dimension of the factored system.
func (f *LU) Dim() int { return f.lu.Rows }

// pivotTol is the absolute pivot magnitude below which the factorization is
// declared singular. Circuit matrices carry a gmin on every diagonal, so a
// healthy system never approaches this.
const pivotTol = 1e-300

// Factor computes the LU factorization of a (square). a is not modified.
func Factor(a *Matrix) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("num: Factor needs square matrix, got %dx%d", a.Rows, a.Cols)
	}
	f := &LU{lu: a.Clone(), piv: make([]int, a.Rows), sign: 1, tmp: make([]float64, a.Rows)}
	if err := f.refactor(); err != nil {
		return nil, err
	}
	return f, nil
}

// FactorInto re-factors a into the existing workspace, avoiding allocation.
// The receiver must have been created by Factor with the same dimensions.
func (f *LU) FactorInto(a *Matrix) error {
	f.lu.CopyFrom(a)
	f.sign = 1
	return f.refactor()
}

func (f *LU) refactor() error {
	n := f.lu.Rows
	m := f.lu
	for i := range f.piv {
		f.piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Partial pivot: largest magnitude in column k at/below diagonal.
		p, maxAbs := k, math.Abs(m.At(k, k))
		for i := k + 1; i < n; i++ {
			if ab := math.Abs(m.At(i, k)); ab > maxAbs {
				p, maxAbs = i, ab
			}
		}
		if maxAbs < pivotTol || math.IsNaN(maxAbs) {
			return fmt.Errorf("%w: pivot %d magnitude %g", ErrSingular, k, maxAbs)
		}
		if p != k {
			rk := m.Data[k*n : (k+1)*n]
			rp := m.Data[p*n : (p+1)*n]
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
			f.piv[k], f.piv[p] = f.piv[p], f.piv[k]
			f.sign = -f.sign
		}
		pivot := m.At(k, k)
		for i := k + 1; i < n; i++ {
			l := m.At(i, k) / pivot
			m.Set(i, k, l)
			if l == 0 {
				continue
			}
			ri := m.Data[i*n : (i+1)*n]
			rk := m.Data[k*n : (k+1)*n]
			for j := k + 1; j < n; j++ {
				ri[j] -= l * rk[j]
			}
		}
	}
	return nil
}

// Solve solves A·x = b using the factorization, writing the result into x.
// b and x may alias. The factorization's internal scratch is reused, so
// Solve does not allocate.
func (f *LU) Solve(b, x []float64) {
	n := f.lu.Rows
	if len(b) != n || len(x) != n {
		panic("num: Solve dimension mismatch")
	}
	// Apply permutation.
	tmp := f.tmp
	for i, p := range f.piv {
		tmp[i] = b[p]
	}
	// Forward substitution (L unit diagonal).
	for i := 1; i < n; i++ {
		s := tmp[i]
		row := f.lu.Data[i*n : i*n+i]
		for j, l := range row {
			s -= l * tmp[j]
		}
		tmp[i] = s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := tmp[i]
		row := f.lu.Data[i*n : (i+1)*n]
		for j := i + 1; j < n; j++ {
			s -= row[j] * tmp[j]
		}
		tmp[i] = s / row[i]
	}
	copy(x, tmp)
}

// SolveSystem is a convenience wrapper: factor a and solve a·x = b.
func SolveSystem(a *Matrix, b []float64) ([]float64, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	x := make([]float64, len(b))
	f.Solve(b, x)
	return x, nil
}
