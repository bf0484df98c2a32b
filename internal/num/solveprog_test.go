package num

import (
	"testing"

	"repro/internal/rng"
)

// randomSparseMatrix builds an n×n matrix with the given fill fraction,
// a dominant diagonal (so it factors), and deterministic entries.
func randomSparseMatrix(src *rng.Stream, n int, fill float64) *Matrix {
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				a.Set(i, j, 2+src.Float64()*3)
				continue
			}
			if src.Float64() < fill {
				a.Set(i, j, src.Float64()*2-1)
			}
		}
	}
	return a
}

// TestSolveProgramMatchesDenseSolve pins the compiled sparse solve to
// the dense LU.Solve result, component by component, over many random
// sparse systems — the equivalence the SPICE trial-template engine's
// bit-identity rests on. Comparison is ==, which treats -0 and +0 as
// equal (the only divergence the zero-skipping can introduce).
func TestSolveProgramMatchesDenseSolve(t *testing.T) {
	src := rng.New(42)
	var prog SolveProgram
	for trial := 0; trial < 200; trial++ {
		n := 2 + int(src.Uint64()%14)
		fill := 0.1 + 0.8*src.Float64()
		a := randomSparseMatrix(src, n, fill)
		f, err := Factor(a)
		if err != nil {
			t.Fatalf("trial %d: factor: %v", trial, err)
		}
		f.Compile(&prog)
		b := make([]float64, n)
		for i := range b {
			b[i] = src.Float64()*4 - 2
		}
		dense := make([]float64, n)
		f.Solve(b, dense)
		sparse := make([]float64, n)
		prog.Solve(b, sparse)
		for i := range dense {
			if sparse[i] != dense[i] {
				t.Fatalf("trial %d (n=%d fill=%.2f): x[%d] = %v via program, %v via dense solve",
					trial, n, fill, i, sparse[i], dense[i])
			}
		}
	}
}

// TestSolveProgramReuseAcrossFactorizations checks that one program,
// recompiled after each FactorInto, tracks the new factors (the per-trial
// refresh pattern of the template engine) and that the warm
// factor→compile→solve loop allocates nothing.
func TestSolveProgramReuseAcrossFactorizations(t *testing.T) {
	src := rng.New(7)
	const n = 11
	a := randomSparseMatrix(src, n, 0.4)
	f, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	var prog SolveProgram
	b := make([]float64, n)
	x := make([]float64, n)
	dense := make([]float64, n)
	for trial := 0; trial < 20; trial++ {
		a = randomSparseMatrix(src, n, 0.2+0.6*src.Float64())
		if err := f.FactorInto(a); err != nil {
			t.Fatal(err)
		}
		f.Compile(&prog)
		for i := range b {
			b[i] = src.Float64()
		}
		f.Solve(b, dense)
		prog.Solve(b, x)
		for i := range x {
			if x[i] != dense[i] {
				t.Fatalf("trial %d: x[%d] = %v, want %v", trial, i, x[i], dense[i])
			}
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := f.FactorInto(a); err != nil {
			t.Error(err)
		}
		f.Compile(&prog)
		prog.Solve(b, x)
	})
	if allocs != 0 {
		t.Fatalf("warm factor+compile+solve allocates %.1f times per run, want 0", allocs)
	}
}
