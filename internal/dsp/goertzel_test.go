package dsp

import (
	"math"
	"math/cmplx"
	"testing"
)

func TestGoertzelSingleTone(t *testing.T) {
	fs := 10000.0
	n := 1000
	x := make([]float64, n)
	for i := range x {
		ti := float64(i) / fs
		x[i] = 0.3 + 0.7*math.Sin(2*math.Pi*500*ti+0.4)
	}
	g := Goertzel(x, fs, 500)
	if math.Abs(cmplx.Abs(g)-0.7) > 1e-9 {
		t.Fatalf("|Goertzel(500)| = %v, want 0.7", cmplx.Abs(g))
	}
	dc := Goertzel(x, fs, 0)
	if math.Abs(cmplx.Abs(dc)-0.3) > 1e-9 {
		t.Fatalf("|Goertzel(0)| = %v, want 0.3", cmplx.Abs(dc))
	}
	// A bin with no energy.
	off := Goertzel(x, fs, 1300)
	if cmplx.Abs(off) > 1e-9 {
		t.Fatalf("empty bin amplitude = %v", cmplx.Abs(off))
	}
}

func TestGoertzelMatchesSpectrum(t *testing.T) {
	fs := 8000.0
	n := 800
	x := make([]float64, n)
	for i := range x {
		ti := float64(i) / fs
		x[i] = 0.5*math.Sin(2*math.Pi*100*ti) + 0.25*math.Sin(2*math.Pi*300*ti+1.1)
	}
	for _, f := range []float64{100, 300} {
		bin := int(math.Round(f * float64(n) / fs))
		want := dftAmplitude(x, bin)
		g := cmplx.Abs(Goertzel(x, fs, f))
		if math.Abs(g-want) > 1e-9 {
			t.Fatalf("Goertzel(%v) = %v vs spectrum %v", f, g, want)
		}
	}
}

// dftAmplitude is the single-sided amplitude of DFT bin k (0 < k < n/2)
// of x, summed directly: 2/n·|Σ x[i]·e^{-j2πki/n}|.
func dftAmplitude(x []float64, k int) float64 {
	n := len(x)
	var sum complex128
	for i, v := range x {
		sum += complex(v, 0) * cmplx.Exp(complex(0, -2*math.Pi*float64(k*i)/float64(n)))
	}
	return 2 * cmplx.Abs(sum) / float64(n)
}

func TestGoertzelEmpty(t *testing.T) {
	if Goertzel(nil, 1000, 100) != 0 {
		t.Fatal("empty input should give 0")
	}
}
