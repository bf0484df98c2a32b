package num

import (
	"math"
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

// randomPivotingMatrix builds an n×n matrix with the given fill
// fraction whose diagonal is no larger than its other entries and is
// often zero, so partial pivoting reorders rows. It may be singular.
func randomPivotingMatrix(src *rng.Stream, n int, fill float64) *Matrix {
	a := NewMatrix(n, n)
	for i := range a.Data {
		if src.Float64() < fill {
			a.Data[i] = src.Float64()*4 - 2
		}
	}
	for i := 0; i < n; i++ {
		if src.Float64() < 0.5 {
			a.Set(i, i, 0)
		} else {
			a.Set(i, i, 0.1*a.At(i, i))
		}
	}
	return a
}

// randomRows returns a random subset of [0, n), each row kept with
// probability p, in a random order, with duplicates; possibly empty but
// never nil.
func randomRows(src *rng.Stream, n int, p float64) []int32 {
	rows := []int32{}
	for i := 0; i < n; i++ {
		if src.Float64() < p {
			rows = append(rows, int32(i))
			if src.Float64() < 0.2 {
				rows = append(rows, int32(i))
			}
		}
	}
	for i := len(rows) - 1; i > 0; i-- {
		j := int(src.Uint64() % uint64(i+1))
		rows[i], rows[j] = rows[j], rows[i]
	}
	return rows
}

// sparseRHS returns a right-hand side that is +0 off the in rows (every
// row for nil) and holds no −0: random values in [-2, 2), an exact +0
// at about one in rows in eight.
func sparseRHS(src *rng.Stream, n int, in []int32) []float64 {
	b := make([]float64, n)
	set := func(i int32) {
		if src.Float64() < 0.875 {
			b[i] = src.Float64()*4 - 2
		}
	}
	if in == nil {
		for i := range b {
			set(int32(i))
		}
		return b
	}
	for _, i := range in {
		set(i)
	}
	return b
}

// checkProgram compiles f for in and out, solves b both ways and
// compares the out rows (every row for nil) bit for bit with LU.Solve.
// It reports false without checking when the dense solution is not
// finite: the program's contract covers finite solves only.
func checkProgram(t *testing.T, name string, f *LU, prog *SolveProgram, in, out []int32, b []float64) bool {
	t.Helper()
	n := f.Dim()
	dense := make([]float64, n)
	f.Solve(b, dense)
	for _, v := range dense {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	f.Compile(prog, in, out)
	x := make([]float64, n)
	for i := range x {
		x[i] = math.NaN() // rows the program does not write stay NaN
	}
	prog.Solve(b, x)
	check := func(i int) {
		if math.Float64bits(x[i]) != math.Float64bits(dense[i]) {
			t.Fatalf("%s (n=%d, in %v, out %v): x[%d] = %v (%#x) via program, %v (%#x) via dense solve",
				name, n, in, out, i, x[i], math.Float64bits(x[i]), dense[i], math.Float64bits(dense[i]))
		}
	}
	if out == nil {
		for i := range dense {
			check(i)
		}
		return true
	}
	for _, i := range out {
		check(int(i))
	}
	return true
}

// TestSolveProgramMatchesDenseSolve pins the compiled sparse solve to
// the dense LU.Solve result bit for bit, through math.Float64bits, so a
// sign-of-zero change shows — the equivalence the SPICE trial-template
// engine's bit-identity rests on:
//   - the unrestricted program (nil, nil) on every row, over random
//     diagonally dominant systems;
//   - restricted programs on their out rows, for random in and out sets
//     and a right-hand side zero off in, over the same systems and over
//     systems that pivot;
//   - the edge sets: empty in (x is ±0), empty out, and in or out alone.
func TestSolveProgramMatchesDenseSolve(t *testing.T) {
	src := rng.New(42)
	var prog SolveProgram
	restricted, pivoted := 0, 0
	for trial := 0; trial < 400; trial++ {
		n := 2 + int(src.Uint64()%15)
		fill := 0.1 + 0.8*src.Float64()
		var a *Matrix
		if trial%2 == 0 {
			a = randomSparseMatrix(src, n, fill)
		} else {
			a = randomPivotingMatrix(src, n, fill)
		}
		f, err := Factor(a)
		if err != nil {
			continue // a singular pivoting draw
		}
		for i, p := range f.piv {
			if p != i {
				pivoted++
				break
			}
		}
		checkProgram(t, "unrestricted", f, &prog, nil, nil, sparseRHS(src, n, nil))
		for k := 0; k < 4; k++ {
			in, out := randomRows(src, n, src.Float64()), randomRows(src, n, src.Float64())
			if checkProgram(t, "restricted", f, &prog, in, out, sparseRHS(src, n, in)) {
				restricted++
			}
		}
		checkProgram(t, "no in rows", f, &prog, []int32{}, nil, make([]float64, n))
		checkProgram(t, "no out rows", f, &prog, nil, []int32{}, sparseRHS(src, n, nil))
		in := randomRows(src, n, 0.3)
		checkProgram(t, "in only", f, &prog, in, nil, sparseRHS(src, n, in))
		checkProgram(t, "out only", f, &prog, nil, randomRows(src, n, 0.3), sparseRHS(src, n, nil))
	}
	t.Logf("%d restricted solves checked, %d systems pivoted", restricted, pivoted)
	if restricted < 1000 || pivoted < 100 {
		t.Fatalf("only %d restricted solves and %d pivoting systems checked", restricted, pivoted)
	}
}

// TestSolveProgramRestrictionDropsWork checks that a restricted program
// does less than the full one on a system with a sparse reach: a lower
// bidiagonal chain, where b's first row reaches every row but out = {0}
// needs only row 0, and in = {n-1} reaches only the last row.
func TestSolveProgramRestrictionDropsWork(t *testing.T) {
	const n = 6
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 4)
		if i > 0 {
			a.Set(i, i-1, 1)
		}
	}
	f, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	var p SolveProgram
	f.Compile(&p, nil, nil)
	if len(p.fwdIdx) != n-1 || len(p.bwdRow) != n {
		t.Fatalf("full program: %d forward terms, %d backward rows; want %d, %d", len(p.fwdIdx), len(p.bwdRow), n-1, n)
	}
	f.Compile(&p, nil, []int32{0})
	if len(p.fwdIdx) != 0 || len(p.bwdRow) != 1 || len(p.gatherRow) != 1 {
		t.Fatalf("out {0}: %d forward terms, %d backward rows, %d gathers; want 0, 1, 1", len(p.fwdIdx), len(p.bwdRow), len(p.gatherRow))
	}
	f.Compile(&p, []int32{n - 1}, nil)
	if len(p.fwdIdx) != 0 || len(p.bwdIdx) != 0 {
		t.Fatalf("in {%d}: %d forward and %d backward terms, want none", n-1, len(p.fwdIdx), len(p.bwdIdx))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Compile accepted a row outside the system")
		}
	}()
	f.Compile(&p, []int32{n}, nil)
}

// TestSolveProgramReuseAcrossFactorizations checks that one program,
// recompiled after each FactorInto, tracks the new factors (the per-trial
// refresh pattern of the template engine) and that the warm
// factor→compile→solve loop allocates nothing, restricted or not.
func TestSolveProgramReuseAcrossFactorizations(t *testing.T) {
	src := rng.New(7)
	const n = 11
	a := randomSparseMatrix(src, n, 0.4)
	f, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	var prog SolveProgram
	for trial := 0; trial < 20; trial++ {
		a = randomSparseMatrix(src, n, 0.2+0.6*src.Float64())
		if err := f.FactorInto(a); err != nil {
			t.Fatal(err)
		}
		checkProgram(t, "unrestricted", f, &prog, nil, nil, sparseRHS(src, n, nil))
		in, out := randomRows(src, n, 0.5), randomRows(src, n, 0.5)
		checkProgram(t, "restricted", f, &prog, in, out, sparseRHS(src, n, in))
	}
	in, out := []int32{1, 4, 7}, []int32{0, 5}
	b := sparseRHS(src, n, in)
	x := make([]float64, n)
	for _, rows := range [][2][]int32{{nil, nil}, {in, out}} {
		allocs := testing.AllocsPerRun(50, func() {
			if err := f.FactorInto(a); err != nil {
				t.Error(err)
			}
			f.Compile(&prog, rows[0], rows[1])
			prog.Solve(b, x)
		})
		if allocs != 0 {
			t.Fatalf("warm factor+compile+solve (in %v, out %v) allocates %.1f times per run, want 0", rows[0], rows[1], allocs)
		}
	}
}

// FuzzSolveProgram checks a restricted program against LU.Solve on a
// random sparse system that pivots: n ≤ 16, in and out drawn as bit
// masks, a finite right-hand side zero off in with no −0. The out rows
// must match bit for bit, and so must every row of the unrestricted
// program.
func FuzzSolveProgram(f *testing.F) {
	f.Add(uint64(1), uint8(11), uint8(90), uint16(0x07f), uint16(0x013))
	f.Add(uint64(2), uint8(16), uint8(200), uint16(0xffff), uint16(0x8001))
	f.Add(uint64(3), uint8(2), uint8(255), uint16(0x1), uint16(0x2))
	f.Add(uint64(4), uint8(9), uint8(40), uint16(0), uint16(0x1ff))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, fillRaw uint8, inMask, outMask uint16) {
		n := 1 + int(nRaw)%16
		src := rng.New(seed)
		a := randomPivotingMatrix(src, n, float64(fillRaw)/255)
		lu, err := Factor(a)
		if err != nil {
			return // singular
		}
		rows := func(mask uint16) []int32 {
			out := []int32{}
			for i := 0; i < n; i++ {
				if mask>>uint(i)&1 != 0 {
					out = append(out, int32(i))
				}
			}
			return out
		}
		in, out := rows(inMask), rows(outMask)
		var prog SolveProgram
		checkProgram(t, "restricted", lu, &prog, in, out, sparseRHS(src, n, in))
		checkProgram(t, "unrestricted", lu, &prog, nil, nil, sparseRHS(src, n, nil))
	})
}

// pairSystem returns a copy of a whose nonzero entries are scaled by
// factors within ±scale of 1: the same zero pattern, so for small
// scales the factors usually pivot alike and compile to the same shape.
func pairSystem(src *rng.Stream, a *Matrix, scale float64) *Matrix {
	b := NewMatrix(a.Rows, a.Cols)
	for i, v := range a.Data {
		if v != 0 {
			b.Data[i] = v * (1 + scale*(2*src.Float64()-1))
		}
	}
	return b
}

// checkPair compiles the factors f0 and f1 for in and out and, when the
// programs share a shape, solves b0 and b1 as the two lanes of
// SolvePair; each lane's out rows (every row for nil) must match its own
// Solve bit for bit. It reports whether the programs shared a shape.
func checkPair(t *testing.T, f0, f1 *LU, p0, p1 *SolveProgram, in, out []int32, b0, b1 []float64) bool {
	t.Helper()
	f0.Compile(p0, in, out)
	f1.Compile(p1, in, out)
	if !p0.SameShape(p1) || !p1.SameShape(p0) {
		return false
	}
	n := f0.Dim()
	nanVec := func() []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = math.NaN()
		}
		return x
	}
	want0, want1, got0, got1 := nanVec(), nanVec(), nanVec(), nanVec()
	p0.Solve(b0, want0)
	p1.Solve(b1, want1)
	SolvePair(p0, p1, b0, got0, b1, got1)
	rows := out
	if rows == nil {
		for i := 0; i < n; i++ {
			rows = append(rows, int32(i))
		}
	}
	for _, i := range rows {
		for lane, xs := range [2][2][]float64{{got0, want0}, {got1, want1}} {
			if math.Float64bits(xs[0][i]) != math.Float64bits(xs[1][i]) {
				t.Fatalf("n=%d in %v out %v: lane %d x[%d] = %v via SolvePair, %v via Solve", n, in, out, lane, i, xs[0][i], xs[1][i])
			}
		}
	}
	return true
}

// TestSolvePairMatchesSolve pins each lane of the two-lane solve to
// Solve bit for bit (math.Float64bits), on pairs of systems with one
// zero pattern that pivot and that do not, restricted and not, and
// checks that SameShape refuses programs of different shapes.
func TestSolvePairMatchesSolve(t *testing.T) {
	src := rng.New(43)
	var p0, p1 SolveProgram
	paired, refused := 0, 0
	for trial := 0; trial < 300; trial++ {
		n := 2 + int(src.Uint64()%15)
		fill := 0.1 + 0.8*src.Float64()
		var a *Matrix
		if trial%2 == 0 {
			a = randomSparseMatrix(src, n, fill)
		} else {
			a = randomPivotingMatrix(src, n, fill)
		}
		f0, err0 := Factor(a)
		f1, err1 := Factor(pairSystem(src, a, 0.05))
		if err0 != nil || err1 != nil {
			continue
		}
		for k := 0; k < 4; k++ {
			var in, out []int32
			if k > 0 {
				in, out = randomRows(src, n, src.Float64()), randomRows(src, n, src.Float64())
			}
			b0, b1 := sparseRHS(src, n, in), sparseRHS(src, n, in)
			if checkPair(t, f0, f1, &p0, &p1, in, out, b0, b1) {
				paired++
			}
		}
		// A program restricted to other rows has another shape, unless
		// the restriction happens to keep the same work.
		f0.Compile(&p0, nil, nil)
		f1.Compile(&p1, nil, []int32{0})
		if !p0.SameShape(&p1) {
			refused++
		}
	}
	t.Logf("%d lane pairs checked, %d differently shaped pairs refused", paired, refused)
	if paired < 500 || refused < 100 {
		t.Fatalf("only %d lane pairs checked and %d shapes refused", paired, refused)
	}
}

// FuzzSolvePair checks the two-lane solve on a random pivoting system
// and a copy with the same zero pattern and values scaled within ±scale:
// when the two restricted programs share a shape, each lane's out rows
// must match its own Solve bit for bit.
func FuzzSolvePair(f *testing.F) {
	f.Add(uint64(1), uint8(11), uint8(90), uint16(0x07f), uint16(0x013), uint8(5))
	f.Add(uint64(2), uint8(16), uint8(200), uint16(0xffff), uint16(0xffff), uint8(1))
	f.Add(uint64(3), uint8(2), uint8(255), uint16(0x1), uint16(0x2), uint8(0))
	f.Add(uint64(4), uint8(9), uint8(40), uint16(0), uint16(0x1ff), uint8(255))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, fillRaw uint8, inMask, outMask uint16, scaleRaw uint8) {
		n := 1 + int(nRaw)%16
		src := rng.New(seed)
		a := randomPivotingMatrix(src, n, float64(fillRaw)/255)
		f0, err0 := Factor(a)
		f1, err1 := Factor(pairSystem(src, a, float64(scaleRaw)/255))
		if err0 != nil || err1 != nil {
			return // singular
		}
		rows := func(mask uint16) []int32 {
			out := []int32{}
			for i := 0; i < n; i++ {
				if mask>>uint(i)&1 != 0 {
					out = append(out, int32(i))
				}
			}
			return out
		}
		in, out := rows(inMask), rows(outMask)
		var p0, p1 SolveProgram
		checkPair(t, f0, f1, &p0, &p1, in, out, sparseRHS(src, n, in), sparseRHS(src, n, in))
		checkPair(t, f0, f1, &p0, &p1, nil, nil, sparseRHS(src, n, nil), sparseRHS(src, n, nil))
	})
}
