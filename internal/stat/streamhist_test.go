package stat

import (
	"math"
	"reflect"
	"testing"
)

// testRand is a tiny deterministic splitmix64 stream so the histogram
// tests never depend on global randomness (the same discipline the
// campaign engine enforces).
type testRand uint64

// float returns a deterministic float64 in [0, 1).
func (r *testRand) float() float64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return float64((z^(z>>31))>>11) / float64(1<<53)
}

func streamHistSample(n int, seed uint64) []float64 {
	r := testRand(seed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 10*r.float() - 2 // spills below lo and above hi of [0, 5)
	}
	return xs
}

// TestStreamingHistogramMatchesHistogram pins the bit-identity claim
// the mcmon migration rests on: over the same range, the streamed
// histogram's bins, overflow counts, and ASCII rendering are identical
// to the materialize-then-bin Histogram.
func TestStreamingHistogramMatchesHistogram(t *testing.T) {
	xs := streamHistSample(5000, 21)
	old := NewHistogram(0, 5, 15)
	sh := NewStreamingHistogram(0, 5, 15)
	for _, x := range xs {
		old.Push(x)
		sh.Push(x)
	}
	if sh.under != uint64(old.Under) || sh.over != uint64(old.Over) || int(sh.n) != old.Total() {
		t.Fatalf("overflow counts drifted: under %d/%d over %d/%d n %d/%d",
			sh.under, old.Under, sh.over, old.Over, sh.n, old.Total())
	}
	for i := range sh.counts {
		if sh.counts[i] != uint64(old.Counts[i]) {
			t.Fatalf("bin %d: %d vs %d", i, sh.counts[i], old.Counts[i])
		}
		if sh.BinCenter(i) != old.BinCenter(i) {
			t.Fatalf("bin %d center: %v vs %v", i, sh.BinCenter(i), old.BinCenter(i))
		}
	}
	if got, want := sh.ASCII(40), old.ASCII(40); got != want {
		t.Fatalf("ASCII rendering drifted:\n%s\nvs\n%s", got, want)
	}
}

func TestStreamingHistogramMergeMatchesSingleStream(t *testing.T) {
	xs := streamHistSample(2001, 33)
	whole := NewStreamingHistogram(0, 5, 32)
	for _, x := range xs {
		whole.Push(x)
	}
	for _, chunks := range []int{1, 4, 8} {
		merged := NewStreamingHistogram(0, 5, 32)
		size := (len(xs) + chunks - 1) / chunks
		for c := 0; c < chunks; c++ {
			part := NewStreamingHistogram(0, 5, 32)
			lo, hi := c*size, min((c+1)*size, len(xs))
			for _, x := range xs[lo:hi] {
				part.Push(x)
			}
			merged.Merge(part)
		}
		if !reflect.DeepEqual(merged, whole) {
			t.Fatalf("%d-chunk merge differs from single stream", chunks)
		}
	}
}

func TestStreamingHistogramMergeShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("merging mismatched shapes must panic")
		}
	}()
	NewStreamingHistogram(0, 1, 4).Merge(NewStreamingHistogram(0, 1, 8))
}

func TestStreamingHistogramQuantile(t *testing.T) {
	xs := streamHistSample(4000, 55)
	// Exact-covering range so no sample clamps to an edge.
	lo, hi := MinMax(xs)
	sh := NewStreamingHistogram(lo, hi+1e-9, 1<<12)
	for _, x := range xs {
		sh.Push(x)
	}
	halfBin := (sh.hi - sh.lo) / float64(len(sh.counts)) / 2
	for _, q := range []float64{0.025, 0.25, 0.5, 0.75, 0.975} {
		got, err := sh.Quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		want := Quantile(xs, q)
		if math.Abs(got-want) > 2*halfBin {
			t.Fatalf("q %v: %v vs exact %v exceeds bin width", q, got, want)
		}
	}
	if _, err := sh.Quantile(-0.1); err == nil {
		t.Fatal("out-of-range quantile must fail")
	}
	empty := NewStreamingHistogram(0, 1, 4)
	if _, err := empty.Quantile(0.5); err == nil {
		t.Fatal("empty histogram quantile must fail")
	}
	nan := NewStreamingHistogram(0, 1, 4)
	nan.Push(0.5)
	nan.Push(math.NaN())
	if nan.invalid != 1 {
		t.Fatalf("invalid = %d, want 1", nan.invalid)
	}
	if _, err := nan.Quantile(0.5); err == nil {
		t.Fatal("NaN-poisoned histogram quantile must fail")
	}
}

func TestStreamingHistogramPushZeroAlloc(t *testing.T) {
	sh := NewStreamingHistogram(0, 5, 15)
	i := 0
	if avg := testing.AllocsPerRun(1000, func() {
		sh.Push(float64(i%60) * 0.1)
		i++
	}); avg != 0 {
		t.Fatalf("Push allocates %v per run, pinned at 0", avg)
	}
}
