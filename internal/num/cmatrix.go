package num

import (
	"fmt"
	"math/cmplx"
)

// CMatrix is a dense row-major complex matrix, used by the circuit
// simulator's AC (small-signal frequency domain) analysis.
type CMatrix struct {
	Rows, Cols int
	Data       []complex128
}

// NewCMatrix returns a zeroed r×c complex matrix.
func NewCMatrix(r, c int) *CMatrix {
	if r < 0 || c < 0 {
		panic("num: negative matrix dimension")
	}
	return &CMatrix{Rows: r, Cols: c, Data: make([]complex128, r*c)}
}

// Add accumulates v into the element at row i, column j.
func (m *CMatrix) Add(i, j int, v complex128) { m.Data[i*m.Cols+j] += v }

// Zero clears every element in place.
func (m *CMatrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// CSolve solves the complex system a·x = b in place via LU with partial
// pivoting, returning the solution. a and b are not modified.
func CSolve(a *CMatrix, b []complex128) ([]complex128, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("num: CSolve needs square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	if len(b) != n {
		return nil, fmt.Errorf("num: CSolve rhs length %d != %d", len(b), n)
	}
	lu := make([]complex128, len(a.Data))
	copy(lu, a.Data)
	x := make([]complex128, n)
	copy(x, b)
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	for k := 0; k < n; k++ {
		p, maxAbs := k, cmplx.Abs(lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if ab := cmplx.Abs(lu[i*n+k]); ab > maxAbs {
				p, maxAbs = i, ab
			}
		}
		if maxAbs < pivotTol {
			return nil, fmt.Errorf("%w: complex pivot %d magnitude %g", ErrSingular, k, maxAbs)
		}
		if p != k {
			for j := 0; j < n; j++ {
				lu[k*n+j], lu[p*n+j] = lu[p*n+j], lu[k*n+j]
			}
			x[k], x[p] = x[p], x[k]
		}
		pivot := lu[k*n+k]
		for i := k + 1; i < n; i++ {
			l := lu[i*n+k] / pivot
			lu[i*n+k] = l
			if l == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu[i*n+j] -= l * lu[k*n+j]
			}
			x[i] -= l * x[k]
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= lu[i*n+j] * x[j]
		}
		x[i] = s / lu[i*n+i]
	}
	return x, nil
}
