package stat

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("Mean = %v, want 5", m)
	}
	// Population variance is 4; unbiased sample variance is 32/7.
	if v := Variance(xs); math.Abs(v-32.0/7.0) > 1e-12 {
		t.Fatalf("Variance = %v, want %v", v, 32.0/7.0)
	}
}

func TestVarianceSingleSample(t *testing.T) {
	if v := Variance([]float64{3}); v != 0 {
		t.Fatalf("Variance of single sample = %v, want 0", v)
	}
}

func TestMeanPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty sample")
		}
	}()
	Mean(nil)
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 2})
	if lo != -1 || hi != 7 {
		t.Fatalf("MinMax = %v,%v want -1,7", lo, hi)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.75, 4},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if got := Quantile(xs, 0.3); math.Abs(got-3) > 1e-12 {
		t.Fatalf("Quantile(0.3) = %v, want 3", got)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	Quantile(xs, 0.5)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Fatalf("Quantile mutated its input: %v", xs)
	}
}

func TestSummarize(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	s := Summarize(xs)
	if s.N != 10 || s.Min != 1 || s.Max != 10 {
		t.Fatalf("bad summary %+v", s)
	}
	if math.Abs(s.Mean-5.5) > 1e-12 || math.Abs(s.Median-5.5) > 1e-12 {
		t.Fatalf("mean/median wrong in %+v", s)
	}
}

func TestRunningMatchesBatch(t *testing.T) {
	r := rng.New(17)
	xs := make([]float64, 500)
	var run Running
	for i := range xs {
		xs[i] = r.Gauss(3, 2)
		run.Push(xs[i])
	}
	if math.Abs(run.Mean()-Mean(xs)) > 1e-10 {
		t.Fatalf("running mean %v vs batch %v", run.Mean(), Mean(xs))
	}
	if math.Abs(run.Variance()-Variance(xs)) > 1e-8 {
		t.Fatalf("running var %v vs batch %v", run.Variance(), Variance(xs))
	}
	lo, hi := MinMax(xs)
	if run.Min() != lo || run.Max() != hi {
		t.Fatal("running extrema disagree with batch")
	}
}

func TestMultiFitRecoversPlane(t *testing.T) {
	// y = 1 + 2a - 3b with intercept column.
	var X [][]float64
	var y []float64
	r := rng.New(9)
	for i := 0; i < 100; i++ {
		a, b := r.Float64(), r.Float64()
		X = append(X, []float64{1, a, b})
		y = append(y, 1+2*a-3*b)
	}
	beta, err := MultiFit(X, y)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, -3}
	for i := range want {
		if math.Abs(beta[i]-want[i]) > 1e-6 {
			t.Fatalf("beta = %v, want %v", beta, want)
		}
	}
}

func TestRMSE(t *testing.T) {
	if e := RMSE([]float64{1, 2}, []float64{1, 2}); e != 0 {
		t.Fatalf("RMSE of identical = %v, want 0", e)
	}
	if e := RMSE([]float64{0, 0}, []float64{3, 4}); math.Abs(e-math.Sqrt(12.5)) > 1e-12 {
		t.Fatalf("RMSE = %v, want sqrt(12.5)", e)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for i := 0; i < 10; i++ {
		h.Push(float64(i) + 0.5)
	}
	h.Push(-1)
	h.Push(11)
	for i, c := range h.Counts {
		if c != 1 {
			t.Fatalf("bin %d count = %d, want 1", i, c)
		}
	}
	if h.Under != 1 || h.Over != 1 || h.Total() != 12 {
		t.Fatalf("under/over/total = %d/%d/%d", h.Under, h.Over, h.Total())
	}
	if bc := h.BinCenter(0); math.Abs(bc-0.5) > 1e-12 {
		t.Fatalf("BinCenter(0) = %v, want 0.5", bc)
	}
}

func TestHistogramMode(t *testing.T) {
	h := NewHistogram(0, 3, 3)
	h.Push(1.5)
	h.Push(1.2)
	h.Push(0.5)
	if m := h.Mode(); math.Abs(m-1.5) > 1e-12 {
		t.Fatalf("Mode = %v, want 1.5", m)
	}
	if s := h.ASCII(20); len(s) == 0 {
		t.Fatal("ASCII render empty")
	}
}

// Property: quantile is monotone in q and bounded by the extremes.
func TestQuantileMonotoneProperty(t *testing.T) {
	prop := func(raw [9]uint16) bool {
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		lo, hi := MinMax(xs)
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0001; q += 0.1 {
			qq := math.Min(q, 1)
			v := Quantile(xs, qq)
			if v < prev-1e-9 || v < lo-1e-9 || v > hi+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: variance is translation invariant and scales quadratically.
func TestVarianceScalingProperty(t *testing.T) {
	prop := func(raw [8]int16, shiftRaw int16) bool {
		xs := make([]float64, len(raw))
		ys := make([]float64, len(raw))
		shift := float64(shiftRaw)
		for i, v := range raw {
			xs[i] = float64(v)
			ys[i] = 2*xs[i] + shift
		}
		vx, vy := Variance(xs), Variance(ys)
		return math.Abs(vy-4*vx) <= 1e-6*(1+math.Abs(vx))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestKolmogorovSmirnovIdentical(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	if d := KolmogorovSmirnov(a, a); d != 0 {
		t.Fatalf("self KS = %v, want 0", d)
	}
}

func TestKolmogorovSmirnovDisjoint(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{10, 11, 12}
	if d := KolmogorovSmirnov(a, b); math.Abs(d-1) > 1e-12 {
		t.Fatalf("disjoint KS = %v, want 1", d)
	}
}

func TestKolmogorovSmirnovHandCase(t *testing.T) {
	// a = {1,3}, b = {2,4}: after 1, F_a=0.5 F_b=0; after 2, 0.5/0.5;
	// after 3, 1/0.5; after 4, 1/1 -> D = 0.5.
	if d := KolmogorovSmirnov([]float64{1, 3}, []float64{2, 4}); math.Abs(d-0.5) > 1e-12 {
		t.Fatalf("KS = %v, want 0.5", d)
	}
}

func TestKSSignificance(t *testing.T) {
	r := rng.New(3)
	n := 400
	same1 := make([]float64, n)
	same2 := make([]float64, n)
	shifted := make([]float64, n)
	for i := 0; i < n; i++ {
		same1[i] = r.Norm()
		same2[i] = r.Norm()
		shifted[i] = r.Norm() + 0.5
	}
	dSame := KolmogorovSmirnov(same1, same2)
	if KSSignificant(dSame, n, n, 0.01) {
		t.Fatalf("identical distributions flagged significant (D=%v)", dSame)
	}
	dShift := KolmogorovSmirnov(same1, shifted)
	if !KSSignificant(dShift, n, n, 0.05) {
		t.Fatalf("0.5σ shift not detected (D=%v)", dShift)
	}
	// 0.05 critical value is lower than 0.01.
	if KSSignificant(0.09, n, n, 0.01) && !KSSignificant(0.09, n, n, 0.05) {
		t.Fatal("alpha ordering inverted")
	}
}

func TestRunningAccessors(t *testing.T) {
	var r Running
	if r.N() != 0 || r.StdDev() != 0 {
		t.Fatal("zero-value Running accessors wrong")
	}
	r.Push(2)
	r.Push(4)
	if r.N() != 2 {
		t.Fatalf("N = %d", r.N())
	}
	if math.Abs(r.StdDev()-math.Sqrt2) > 1e-12 {
		t.Fatalf("StdDev = %v, want sqrt(2)", r.StdDev())
	}
}

// mixedSample builds a deterministic mixed-sign heavy-tailed sample.
func mixedSample(n int, seed uint64) []float64 {
	r := testRand(seed)
	xs := make([]float64, n)
	for i := range xs {
		u := r.float()
		x := math.Exp(8*u - 4) // log-uniform over ~[0.018, 54]
		switch i % 7 {
		case 3:
			x = -x
		case 5:
			x = 0
		}
		xs[i] = x
	}
	return xs
}

func TestRunningMergeMatchesWholeSample(t *testing.T) {
	xs := mixedSample(999, 13)
	var whole Running
	for _, x := range xs {
		whole.Push(x)
	}
	for _, chunks := range []int{1, 4, 8} {
		var merged Running
		size := (len(xs) + chunks - 1) / chunks
		for c := 0; c < chunks; c++ {
			var part Running
			lo, hi := c*size, min((c+1)*size, len(xs))
			for _, x := range xs[lo:hi] {
				part.Push(x)
			}
			merged.Merge(part)
		}
		if merged.N() != whole.N() || merged.Min() != whole.Min() || merged.Max() != whole.Max() {
			t.Fatalf("%d-chunk merge: n/min/max drifted", chunks)
		}
		if math.Abs(merged.Mean()-Mean(xs)) > 1e-12 {
			t.Fatalf("%d-chunk merge mean %v vs exact %v", chunks, merged.Mean(), Mean(xs))
		}
		if math.Abs(merged.Variance()-Variance(xs)) > 1e-9 {
			t.Fatalf("%d-chunk merge variance %v vs exact %v", chunks, merged.Variance(), Variance(xs))
		}
	}
}

// TestRunningMergeDeterministicAtFixedChunks pins bit-reproducibility
// of the float merge at a fixed chunk grouping: merging the same parts
// in the same order twice gives identical bits.
func TestRunningMergeDeterministicAtFixedChunks(t *testing.T) {
	xs := mixedSample(1000, 17)
	run := func() (float64, float64) {
		var m Running
		for c := 0; c < 4; c++ {
			var part Running
			for _, x := range xs[c*250 : (c+1)*250] {
				part.Push(x)
			}
			m.Merge(part)
		}
		return m.Mean(), m.Variance()
	}
	m1, v1 := run()
	m2, v2 := run()
	if m1 != m2 || v1 != v2 {
		t.Fatal("fixed-grouping merge is not bit-reproducible")
	}
}
