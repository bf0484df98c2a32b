package num

import (
	"math"
	"testing"
)

func TestNorms(t *testing.T) {
	v := []float64{3, -4}
	if got := NormInf(v); got != 4 {
		t.Fatalf("NormInf = %v, want 4", got)
	}
	if got := NormInf(nil); got != 0 {
		t.Fatalf("NormInf(nil) = %v, want 0", got)
	}
}

func TestClamp(t *testing.T) {
	cases := []struct{ x, lo, hi, want float64 }{
		{-1, 0, 1, 0},
		{2, 0, 1, 1},
		{0.5, 0, 1, 0.5},
	}
	for _, c := range cases {
		if got := Clamp(c.x, c.lo, c.hi); got != c.want {
			t.Fatalf("Clamp(%v,%v,%v) = %v, want %v", c.x, c.lo, c.hi, got, c.want)
		}
	}
}

func TestBisect(t *testing.T) {
	root, err := Bisect(func(x float64) float64 { return x*x - 2 }, 0, 2, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(root-math.Sqrt2) > 1e-10 {
		t.Fatalf("Bisect root = %v, want sqrt(2)", root)
	}
}

func TestBisectNoBracket(t *testing.T) {
	if _, err := Bisect(func(x float64) float64 { return x*x + 1 }, -1, 1, 1e-9); err != ErrNoBracket {
		t.Fatalf("err = %v, want ErrNoBracket", err)
	}
}

func TestBisectEndpointRoot(t *testing.T) {
	root, err := Bisect(func(x float64) float64 { return x }, 0, 1, 1e-9)
	if err != nil || root != 0 {
		t.Fatalf("root = %v err = %v, want 0, nil", root, err)
	}
}
