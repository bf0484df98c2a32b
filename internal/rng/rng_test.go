package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with same seed diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/64 identical draws from different seeds", same)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(7)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestUniformMean(t *testing.T) {
	s := New(99)
	sum := 0.0
	n := 200000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestNormMoments(t *testing.T) {
	s := New(123)
	n := 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("gaussian mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("gaussian variance = %v, want ~1", variance)
	}
}

func TestGaussScaling(t *testing.T) {
	s := New(5)
	n := 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Gauss(10, 2)
	}
	if mean := sum / float64(n); math.Abs(mean-10) > 0.05 {
		t.Fatalf("Gauss(10,2) mean = %v, want ~10", mean)
	}
}

func TestSplitIndependence(t *testing.T) {
	base := New(42)
	a := base.Split(1)
	b := base.Split(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split streams correlated: %d/64 equal draws", same)
	}
}

// Property: any seed yields a usable stream whose first 32 floats are in
// range and not all identical.
func TestAnySeedUsableProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		s := New(seed)
		first := s.Float64()
		varied := false
		for i := 0; i < 31; i++ {
			v := s.Float64()
			if v < 0 || v >= 1 {
				return false
			}
			if v != first {
				varied = true
			}
		}
		return varied
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
