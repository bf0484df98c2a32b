package num

import (
	"math/cmplx"
	"testing"
	"testing/quick"
)

func TestCSolveIdentity(t *testing.T) {
	n := 4
	a := NewCMatrix(n, n)
	for i := 0; i < n; i++ {
		a.Add(i, i, 1)
	}
	b := []complex128{1, 2i, 3 + 1i, -4}
	x, err := CSolve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		if x[i] != b[i] {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], b[i])
		}
	}
}

func TestCSolveKnownComplexSystem(t *testing.T) {
	// (1+i)x = 2i  ->  x = 2i/(1+i) = 1+i
	a := NewCMatrix(1, 1)
	a.Add(0, 0, 1+1i)
	x, err := CSolve(a, []complex128{2i})
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(x[0]-(1+1i)) > 1e-14 {
		t.Fatalf("x = %v, want 1+i", x[0])
	}
}

func TestCSolvePivoting(t *testing.T) {
	a := NewCMatrix(2, 2)
	a.Add(0, 1, 1i)
	a.Add(1, 0, 2)
	x, err := CSolve(a, []complex128{3i, 4})
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(x[0]-2) > 1e-14 || cmplx.Abs(x[1]-3) > 1e-14 {
		t.Fatalf("x = %v, want [2 3]", x)
	}
}

func TestCSolveSingular(t *testing.T) {
	a := NewCMatrix(2, 2)
	a.Add(0, 0, 1)
	a.Add(0, 1, 1)
	a.Add(1, 0, 2)
	a.Add(1, 1, 2)
	if _, err := CSolve(a, []complex128{1, 2}); err == nil {
		t.Fatal("singular matrix accepted")
	}
}

func TestCSolveValidation(t *testing.T) {
	if _, err := CSolve(NewCMatrix(2, 3), make([]complex128, 2)); err == nil {
		t.Fatal("non-square accepted")
	}
	if _, err := CSolve(NewCMatrix(2, 2), make([]complex128, 3)); err == nil {
		t.Fatal("wrong rhs length accepted")
	}
}

func TestCMatrixZeroAdd(t *testing.T) {
	m := NewCMatrix(2, 2)
	m.Add(0, 1, 2i)
	m.Add(0, 1, 3)
	if m.Data[1] != 3+2i {
		t.Fatalf("element (0,1) = %v", m.Data[1])
	}
	m.Zero()
	if m.Data[1] != 0 {
		t.Fatal("Zero failed")
	}
}

// Property: CSolve inverts well-conditioned random complex systems.
func TestCSolveRoundTripProperty(t *testing.T) {
	prop := func(seedRaw uint32) bool {
		n := 3
		s := uint64(seedRaw) | 1
		next := func() float64 {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			return float64(s%2000)/1000.0 - 1.0
		}
		a := NewCMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Add(i, j, complex(next(), next()))
			}
			a.Add(i, i, 5)
		}
		b := make([]complex128, n)
		for i := range b {
			b[i] = complex(next(), next())
		}
		x, err := CSolve(a, b)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			var s complex128
			for j := 0; j < n; j++ {
				s += a.Data[i*n+j] * x[j]
			}
			if cmplx.Abs(s-b[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
