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

// TestNormPinned pins Norm's first draws, and the uniform draw after
// them, for two seeds as fixed bit patterns: Norm is Polar plus
// PolarScale, and every noisy Monte-Carlo result hangs on these bits.
func TestNormPinned(t *testing.T) {
	for _, pin := range []struct {
		seed uint64
		norm [6]uint64
		next uint64
	}{
		{1, [6]uint64{0x3ffe267c87ac62eb, 0x3fc84abd879d0e18, 0x3ff4d55c9633557c, 0xbffe8d0b0399ee9c, 0x3fdc0d732ae4b3dd, 0xbfe95abea9281847}, 0x123004ef8df510e6},
		{20261018, [6]uint64{0x3ff5024ac95e5509, 0x3ff159d14c2d6b7f, 0xbfe6a41865651274, 0xbfffdefa9d21bfe9, 0x3fe54427aabb23fc, 0x3fbfa12b4781a4f2}, 0x1d9513e36be4b5e0},
	} {
		s := New(pin.seed)
		for i, want := range pin.norm {
			if got := math.Float64bits(s.Norm()); got != want {
				t.Fatalf("seed %d: Norm draw %d = %#016x, want %#016x", pin.seed, i, got, want)
			}
		}
		if got := s.Uint64(); got != pin.next {
			t.Fatalf("seed %d: Uint64 after six Norm draws = %#016x, want %#016x", pin.seed, got, pin.next)
		}
	}
}

// TestPolarFillMatchesPolar: PolarFill draws, pair for pair, what as
// many Polar calls draw, and leaves the stream in the same state.
func TestPolarFillMatchesPolar(t *testing.T) {
	for _, n := range []int{0, 1, 255, 256, 2000} {
		us, vs, r2s := make([]float64, n), make([]float64, n), make([]float64, n)
		for seed := uint64(0); seed < 100; seed++ {
			a, b := New(seed), New(seed)
			b.PolarFill(us, vs, r2s)
			for i := 0; i < n; i++ {
				u, v, r2 := a.Polar()
				if u != us[i] || v != vs[i] || r2 != r2s[i] {
					t.Fatalf("n %d seed %d pair %d: PolarFill (%v, %v, %v), Polar (%v, %v, %v)",
						n, seed, i, us[i], vs[i], r2s[i], u, v, r2)
				}
				if !(r2 > 0 && r2 < 1) || r2 != u*u+v*v {
					t.Fatalf("n %d seed %d pair %d: r2 %v not an accepted u² + v²", n, seed, i, r2)
				}
			}
			if a.s != b.s || a.haveSpare != b.haveSpare {
				t.Fatalf("n %d seed %d: end states differ", n, seed)
			}
		}
	}
}

// TestNormIsPolarPlusScale: Norm returns u·f and then its spare v·f
// for each Polar pair, f = PolarScale(r2).
func TestNormIsPolarPlusScale(t *testing.T) {
	a, b := New(77), New(77)
	for i := 0; i < 1000; i++ {
		u, v, r2 := b.Polar()
		f := PolarScale(r2)
		if x, y := a.Norm(), a.Norm(); x != u*f || y != v*f {
			t.Fatalf("pair %d: Norm (%v, %v), Polar·PolarScale (%v, %v)", i, x, y, u*f, v*f)
		}
	}
}

// TestPolarFillRefusesPendingSpare: a stream holding Norm's spare would
// hand it out before any new pair, so PolarFill must not skip it.
func TestPolarFillRefusesPendingSpare(t *testing.T) {
	s := New(3)
	s.Norm()
	defer func() {
		if recover() == nil {
			t.Fatal("PolarFill with a spare pending did not panic")
		}
	}()
	buf := make([]float64, 4)
	s.PolarFill(buf[:2], buf[2:], make([]float64, 2))
}
