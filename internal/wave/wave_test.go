package wave

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestDC(t *testing.T) {
	w := DC(0.6)
	if w.Eval(0) != 0.6 || w.Eval(123) != 0.6 {
		t.Fatal("DC not constant")
	}
	if w.Period() != 0 {
		t.Fatal("DC period must be 0")
	}
}

func TestSineBasics(t *testing.T) {
	s := Sine{Amp: 2, Freq: 10, Offset: 1}
	if got := s.Eval(0); math.Abs(got-1) > 1e-12 {
		t.Fatalf("sine at t=0 = %v, want offset 1", got)
	}
	// Quarter period: sin peaks.
	if got := s.Eval(0.025); math.Abs(got-3) > 1e-9 {
		t.Fatalf("sine peak = %v, want 3", got)
	}
	if p := s.Period(); math.Abs(p-0.1) > 1e-15 {
		t.Fatalf("period = %v, want 0.1", p)
	}
	if (Sine{Freq: 0}).Period() != 0 {
		t.Fatal("zero-frequency sine must report period 0")
	}
}

func TestMultitonePeriod(t *testing.T) {
	m, err := NewMultitone(0.5, 5000, []int{1, 2, 3}, []float64{0.22, 0.13, 0.08}, []float64{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if p := m.Period(); math.Abs(p-200e-6) > 1e-12 {
		t.Fatalf("period = %v, want 200 µs", p)
	}
}

func TestMultitonePeriodGCD(t *testing.T) {
	// Harmonics 2 and 4 share GCD 2 -> period halves.
	m, err := NewMultitone(0, 1000, []int{2, 4}, []float64{1, 1}, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if p := m.Period(); math.Abs(p-0.5e-3) > 1e-12 {
		t.Fatalf("period = %v, want 0.5 ms", p)
	}
}

func TestMultitoneIsPeriodic(t *testing.T) {
	m, err := NewMultitone(0.5, 5000, []int{1, 2, 3}, []float64{0.2, 0.1, 0.05}, []float64{0.3, 1.1, -0.7})
	if err != nil {
		t.Fatal(err)
	}
	p := m.Period()
	for _, tt := range []float64{0, 1e-5, 7.3e-5, 1.9e-4} {
		if d := math.Abs(m.Eval(tt) - m.Eval(tt+p)); d > 1e-9 {
			t.Fatalf("waveform not periodic: |v(t)-v(t+T)| = %v at t=%v", d, tt)
		}
	}
}

func TestMultitoneValidation(t *testing.T) {
	if _, err := NewMultitone(0, -5, []int{1}, []float64{1}, []float64{0}); err == nil {
		t.Fatal("negative fundamental accepted")
	}
	if _, err := NewMultitone(0, 5, []int{1, 2}, []float64{1}, []float64{0}); err == nil {
		t.Fatal("mismatched slices accepted")
	}
	if _, err := NewMultitone(0, 5, []int{0}, []float64{1}, []float64{0}); err == nil {
		t.Fatal("zero harmonic accepted")
	}
	if _, err := NewMultitone(0, 5, nil, nil, nil); err == nil {
		t.Fatal("empty tone list accepted")
	}
}

func TestMultitonePeakToPeak(t *testing.T) {
	m, _ := NewMultitone(0.5, 1000, []int{1, 2}, []float64{0.2, -0.1}, []float64{0, 0})
	lo, hi := m.PeakToPeak()
	if math.Abs(lo-0.2) > 1e-12 || math.Abs(hi-0.8) > 1e-12 {
		t.Fatalf("PeakToPeak = %v,%v want 0.2,0.8", lo, hi)
	}
}

func TestMultitoneSpectrum(t *testing.T) {
	// The sampled multitone must show exactly its tone amplitudes.
	m, err := NewMultitone(0.5, 5000, []int{1, 2, 3}, []float64{0.22, 0.13, 0.08}, []float64{0, 0.5, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	rec := SamplePeriods(m, 1, 2000)
	n := len(rec.V)
	checks := []struct {
		freq, amp float64
	}{{0, 0.5}, {5000, 0.22}, {10000, 0.13}, {15000, 0.08}}
	for _, c := range checks {
		// Single-sided amplitude of DFT bin k, summed directly (the DC
		// bin is not doubled).
		bin := int(math.Round(c.freq / (rec.Fs / float64(n))))
		var sum complex128
		for i, v := range rec.V {
			sum += complex(v, 0) * cmplx.Exp(complex(0, -2*math.Pi*float64(bin*i)/float64(n)))
		}
		amp := cmplx.Abs(sum) / float64(n)
		if bin != 0 {
			amp *= 2
		}
		if math.Abs(amp-c.amp) > 1e-6 {
			t.Fatalf("amp at %g Hz = %v, want %v", c.freq, amp, c.amp)
		}
	}
}

func TestNoisyStatistics(t *testing.T) {
	n := &Noisy{Base: DC(0.5), Sigma: 0.005, Src: rng.New(42)}
	if n.Period() != 0 {
		t.Fatal("noisy DC period should be 0")
	}
	sum, sumSq := 0.0, 0.0
	N := 100000
	for i := 0; i < N; i++ {
		v := n.Eval(0) - 0.5
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(N)
	std := math.Sqrt(sumSq/float64(N) - mean*mean)
	if math.Abs(mean) > 1e-4 {
		t.Fatalf("noise mean = %v, want ~0", mean)
	}
	if math.Abs(std-0.005) > 2e-4 {
		t.Fatalf("noise std = %v, want 0.005", std)
	}
}

func TestSampleGrid(t *testing.T) {
	rec := Sample(DC(2), 1e-3, 1e6)
	if len(rec.V) != 1000 {
		t.Fatalf("sample count = %d, want 1000", len(rec.V))
	}
	if rec.T[0] != 0 || math.Abs(rec.T[999]-999e-6) > 1e-12 {
		t.Fatalf("time grid wrong: %v ... %v", rec.T[0], rec.T[999])
	}
	for _, v := range rec.V {
		if v != 2 {
			t.Fatal("DC sample wrong")
		}
	}
}

func TestSamplePeriodsPanicsOnAperiodic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for aperiodic waveform")
		}
	}()
	SamplePeriods(DC(1), 1, 100)
}

// Property: multitone amplitude never exceeds the PeakToPeak bound.
func TestMultitoneBoundProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		r := rng.New(seed)
		amps := []float64{0.3 * r.Float64(), 0.2 * r.Float64(), 0.1 * r.Float64()}
		phases := []float64{6.28 * r.Float64(), 6.28 * r.Float64(), 6.28 * r.Float64()}
		m, err := NewMultitone(0.5, 1000, []int{1, 2, 3}, amps, phases)
		if err != nil {
			return false
		}
		lo, hi := m.PeakToPeak()
		for i := 0; i < 500; i++ {
			v := m.Eval(float64(i) * 2e-6)
			if v < lo-1e-9 || v > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSampledPeriodicInterpolation(t *testing.T) {
	// Four samples of one period: 0, 1, 0, -1 (a coarse sine).
	s, err := NewSampled([]float64{0, 1, 0, -1}, 4e-3)
	if err != nil {
		t.Fatal(err)
	}
	if s.Period() != 4e-3 {
		t.Fatalf("period = %v", s.Period())
	}
	cases := []struct{ t, want float64 }{
		{0, 0},
		{1e-3, 1},
		{0.5e-3, 0.5},  // midway between samples 0 and 1
		{3.5e-3, -0.5}, // wrap segment: last sample back toward the first
		{4e-3, 0},      // exactly one period wraps to phase 0
		{5e-3, 1},      // periodicity
		{-3e-3, 1},     // negative time wraps too
	}
	for _, c := range cases {
		if got := s.Eval(c.t); got != c.want {
			t.Fatalf("Eval(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestSampledValidation(t *testing.T) {
	if _, err := NewSampled([]float64{1}, 1); err == nil {
		t.Fatal("single sample accepted")
	}
	if _, err := NewSampled([]float64{1, 2}, 0); err == nil {
		t.Fatal("zero period accepted")
	}
	// The input slice is copied: mutating it must not affect the waveform.
	v := []float64{0, 1}
	s, err := NewSampled(v, 1)
	if err != nil {
		t.Fatal(err)
	}
	v[0] = 99
	if s.Eval(0) != 0 {
		t.Fatal("samples not copied")
	}
}

func TestSampledReuse(t *testing.T) {
	s, err := NewSampled([]float64{0, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Reuse aliases: mutating the buffer changes the waveform, and no
	// allocation happens on the refresh path.
	buf := []float64{2, 4, 6, 8}
	if err := s.Reuse(buf, 2); err != nil {
		t.Fatal(err)
	}
	if s.Period() != 2 {
		t.Fatalf("period = %v after Reuse", s.Period())
	}
	if got := s.Eval(0.5); got != 4 {
		t.Fatalf("Eval(0.5) = %v, want 4", got)
	}
	buf[1] = -4
	if got := s.Eval(0.5); got != -4 {
		t.Fatal("Reuse must alias, not copy")
	}
	if err := s.Reuse([]float64{1}, 1); err == nil {
		t.Fatal("single sample accepted by Reuse")
	}
	if err := s.Reuse(buf, 0); err == nil {
		t.Fatal("zero period accepted by Reuse")
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := s.Reuse(buf, 2); err != nil {
			t.Error(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Reuse allocates %.1f times per run, want 0", allocs)
	}
}
