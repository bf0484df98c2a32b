package ndf

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/signature"
)

func TestRotateIdentity(t *testing.T) {
	s := sig(1, signature.Entry{Code: 0, Dur: 0.3}, signature.Entry{Code: 1, Dur: 0.7})
	r := Rotate(s, 0)
	if len(r.Entries) != 2 || r.Entries[0] != s.Entries[0] {
		t.Fatalf("zero rotation changed signature: %v", r)
	}
	full := Rotate(s, 1.0) // full period = identity
	if v, _ := NDF(full, s); v != 0 {
		t.Fatalf("full-period rotation NDF = %v", v)
	}
}

func TestRotateKnownOffset(t *testing.T) {
	// Codes: 0 on [0,0.5), 1 on [0.5,1). Rotated by 0.25: code at t=0 is
	// original at 0.25 -> 0; transition at t=0.25.
	s := sig(1, signature.Entry{Code: 0, Dur: 0.5}, signature.Entry{Code: 1, Dur: 0.5})
	r := Rotate(s, 0.25)
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if r.At(0.1) != 0 || r.At(0.3) != 1 || r.At(0.8) != 0 {
		t.Fatalf("rotation wrong: %v", r)
	}
}

func TestRotateWrapsNegative(t *testing.T) {
	s := sig(1, signature.Entry{Code: 0, Dur: 0.5}, signature.Entry{Code: 1, Dur: 0.5})
	a := Rotate(s, -0.25)
	b := Rotate(s, 0.75)
	for _, tt := range []float64{0.1, 0.4, 0.6, 0.9} {
		if a.At(tt) != b.At(tt) {
			t.Fatal("negative rotation != equivalent positive rotation")
		}
	}
}

func TestRotateDurationInvariant(t *testing.T) {
	s := sig(1,
		signature.Entry{Code: 0, Dur: 0.2},
		signature.Entry{Code: 1, Dur: 0.3},
		signature.Entry{Code: 3, Dur: 0.5})
	for _, dt := range []float64{0.1, 0.2, 0.35, 0.77} {
		r := Rotate(s, dt)
		sum := 0.0
		for _, e := range r.Entries {
			sum += e.Dur
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("rotation by %v broke total duration: %v", dt, sum)
		}
		if err := r.Validate(); err != nil {
			t.Fatalf("rotation by %v: %v", dt, err)
		}
	}
}

// Property: rotation never changes the NDF against an equally rotated
// golden (simultaneous rotation invariance of Eq. 2).
func TestSimultaneousRotationInvariantProperty(t *testing.T) {
	g := sig(1,
		signature.Entry{Code: 0, Dur: 0.25},
		signature.Entry{Code: 1, Dur: 0.25},
		signature.Entry{Code: 3, Dur: 0.5})
	o := sig(1,
		signature.Entry{Code: 0, Dur: 0.30},
		signature.Entry{Code: 1, Dur: 0.30},
		signature.Entry{Code: 2, Dur: 0.40})
	ref, err := NDF(o, g)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(raw uint16) bool {
		dt := float64(raw) / 65535
		a, err := NDF(Rotate(o, dt), Rotate(g, dt))
		if err != nil {
			return false
		}
		return math.Abs(a-ref) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
