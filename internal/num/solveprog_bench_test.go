package num

import (
	"testing"

	"repro/internal/rng"
)

// The solve benchmarks compare the dense LU solve with the compiled
// sparse program at circuit-matrix size (n≈11 for the Tow-Thomas MNA
// system), where a triangular solve is latency-bound: the serial
// load→multiply→subtract dependency chain, not the flop count, sets the
// time.

func benchSolveSystem(seed uint64, n int) (*LU, []float64) {
	src := rng.New(seed)
	a := randomSparseMatrix(src, n, 0.35)
	lu, err := Factor(a)
	if err != nil {
		panic(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = src.Float64()*2 - 1
	}
	return lu, b
}

func BenchmarkSolveDense11(b *testing.B) {
	lu, rhs := benchSolveSystem(1, 11)
	x := make([]float64, 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lu.Solve(rhs, x)
	}
}

func BenchmarkSolveProgram11(b *testing.B) {
	lu, rhs := benchSolveSystem(1, 11)
	var p SolveProgram
	lu.Compile(&p, nil, nil)
	x := make([]float64, 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Solve(rhs, x)
	}
}
