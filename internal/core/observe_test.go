package core

import (
	"math"
	"testing"
)

func bpSystem(t *testing.T) *System {
	t.Helper()
	s := Default()
	sys, err := NewSystem(s.Stimulus, s.CUT, s.Bank, s.Capture)
	if err != nil {
		t.Fatal(err)
	}
	sys.Observe = ObserveBP
	return sys
}

func TestObservationString(t *testing.T) {
	if ObserveLP.String() != "low-pass" || ObserveBP.String() != "band-pass" {
		t.Fatal("Observation.String wrong")
	}
}

func TestBPObservationStaysInSquare(t *testing.T) {
	sys := bpSystem(t)
	c, err := sys.Lissajous(sys.CUT)
	if err != nil {
		t.Fatal(err)
	}
	minX, maxX, minY, maxY, err := c.BoundingBox(4000)
	if err != nil {
		t.Fatal(err)
	}
	if minX < 0 || maxX > 1 || minY < 0 || maxY > 1 {
		t.Fatalf("BP Lissajous leaves unit square: [%v,%v]x[%v,%v]", minX, maxX, minY, maxY)
	}
	// Re-bias: the BP output is centred at 0.5.
	if mid := (minY + maxY) / 2; math.Abs(mid-0.5) > 0.1 {
		t.Fatalf("BP output mid-level = %v, want ~0.5", mid)
	}
}

func TestBPGoldenSignatureDiffersFromLP(t *testing.T) {
	lp := Default()
	bp := bpSystem(t)
	glp, err := lp.GoldenSignature()
	if err != nil {
		t.Fatal(err)
	}
	gbp, err := bp.GoldenSignature()
	if err != nil {
		t.Fatal(err)
	}
	if glp.NumZones() == gbp.NumZones() {
		same := true
		for i := range glp.Entries {
			if glp.Entries[i].Code != gbp.Entries[i].Code {
				same = false
				break
			}
		}
		if same {
			t.Fatal("BP and LP observations produced identical signatures")
		}
	}
	if err := gbp.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBPSeesQDeviation(t *testing.T) {
	bp := bpSystem(t)
	v, err := bp.NDFOfDeviation(Deviation{QShift: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if v <= 0 {
		t.Fatal("BP observation blind to +20% Q")
	}
}

func TestNDFOfDeviationMatchesShiftHelper(t *testing.T) {
	s := Default()
	a, err := s.NDFOfShift(0.07)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.NDFOfDeviation(Deviation{F0Shift: 0.07})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("NDFOfShift %v != NDFOfDeviation %v", a, b)
	}
}

func TestEffectiveNoiseSigma(t *testing.T) {
	eff := EffectiveNoiseSigma(0.005)
	want := 0.005 * math.Sqrt(MonitorBandHz/NoiseBandHz)
	if math.Abs(eff-want) > 1e-15 {
		t.Fatalf("EffectiveNoiseSigma = %v, want %v", eff, want)
	}
	if eff >= 0.005 {
		t.Fatal("band-limiting must attenuate")
	}
}

func TestAveragedNDFReducesVariance(t *testing.T) {
	// Not a statistical test of variance (slow); just the contract:
	// periods < 1 is clamped and the result is finite and positive
	// under noise.
	p := noisePlan(t, Default(), Deviation{}, 0.005)
	v, err := p.AveragedNDF(nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// With a nil noise stream sigma is ignored -> exact capture of the
	// golden vs golden exact signature: NDF is the pure quantization
	// residue, small but possibly nonzero.
	if v < 0 || v > 0.02 {
		t.Fatalf("noiseless averaged NDF = %v", v)
	}
}
