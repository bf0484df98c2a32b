package stat

import (
	"fmt"
	"math"

	"repro/internal/num"
)

// MultiFit solves the multivariate least-squares problem y ≈ X·beta where
// each row of X is one observation's feature vector (an intercept column
// must be included by the caller if desired). It returns beta. A small
// ridge term keeps underdetermined or collinear systems solvable (the
// minimum-norm solution), which dwell-histogram feature sets routinely
// need.
func MultiFit(X [][]float64, y []float64) ([]float64, error) {
	if len(X) == 0 {
		return nil, ErrEmpty
	}
	if len(X) != len(y) {
		return nil, fmt.Errorf("stat: MultiFit row mismatch %d vs %d", len(X), len(y))
	}
	p := len(X[0])
	ata := num.NewMatrix(p, p)
	aty := make([]float64, p)
	for i, row := range X {
		if len(row) != p {
			return nil, fmt.Errorf("stat: MultiFit ragged row %d", i)
		}
		for r := 0; r < p; r++ {
			aty[r] += row[r] * y[i]
			for c := r; c < p; c++ {
				ata.Add(r, c, row[r]*row[c])
			}
		}
	}
	// Symmetrize lower triangle.
	for r := 1; r < p; r++ {
		for c := 0; c < r; c++ {
			ata.Set(r, c, ata.At(c, r))
		}
	}
	// Ridge scaled to the Gram matrix keeps collinear and
	// underdetermined systems solvable without visibly biasing
	// well-posed fits.
	trace := 0.0
	for r := 0; r < p; r++ {
		trace += ata.At(r, r)
	}
	ridge := 1e-9*trace/float64(p) + 1e-12
	for r := 0; r < p; r++ {
		ata.Add(r, r, ridge)
	}
	return num.SolveSystem(ata, aty)
}

// RMSE returns the root mean squared error between predictions and truth.
func RMSE(pred, truth []float64) float64 {
	if len(pred) != len(truth) {
		panic("stat: RMSE length mismatch")
	}
	if len(pred) == 0 {
		panic(ErrEmpty)
	}
	s := 0.0
	for i := range pred {
		d := pred[i] - truth[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(pred)))
}
