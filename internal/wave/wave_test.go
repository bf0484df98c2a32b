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

// TestMultitoneCurvatureBound: on random multitones the central second
// difference of Eval — the second derivative somewhere in its stencil,
// up to the difference's own rounding — never exceeds CurvatureBound. A single
// tone's bound is Amp·(2π·Freq)² up to the documented 1e-12 round-up,
// and a NaN or infinite amplitude leaves no finite bound.
func TestMultitoneCurvatureBound(t *testing.T) {
	src := rng.New(23)
	for c := 0; c < 200; c++ {
		n := 1 + int(6*src.Float64())
		harm := make([]int, n)
		amps := make([]float64, n)
		phases := make([]float64, n)
		for k := range harm {
			harm[k] = 1 + int(8*src.Float64())
			amps[k] = 1.2*src.Float64() - 0.6
			phases[k] = 2 * math.Pi * src.Float64()
		}
		m, err := NewMultitone(src.Float64(), 5e3, harm, amps, phases)
		if err != nil {
			t.Fatal(err)
		}
		m2 := m.CurvatureBound()
		// Each Eval rounds by well under 1e-13 V here; the difference
		// combines four of them.
		h := m.Period() / 4096
		tol := 4e-13 / (h * h)
		for i := 0; i < 500; i++ {
			tm := m.Period() * src.Float64()
			d2 := (m.Eval(tm+h) - 2*m.Eval(tm) + m.Eval(tm-h)) / (h * h)
			if math.Abs(d2) > m2+tol {
				t.Fatalf("curve %d at t %v: |second difference| %v exceeds bound %v", c, tm, math.Abs(d2), m2)
			}
		}
	}

	m, err := NewMultitone(0.3, 7e3, []int{3}, []float64{-0.4}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	w := 2 * math.Pi * 21e3
	if got, want := m.CurvatureBound(), 0.4*w*w; got < want || got > want*(1+2e-12) {
		t.Fatalf("single tone: bound %v, want %v rounded up by at most 1e-12", got, want)
	}
	m.Tones[0].Amp = math.NaN()
	if b := m.CurvatureBound(); !math.IsNaN(b) {
		t.Fatalf("NaN amplitude: bound %v, want NaN", b)
	}
	m.Tones[0].Amp = math.Inf(-1)
	if b := m.CurvatureBound(); !math.IsInf(b, 1) {
		t.Fatalf("infinite amplitude: bound %v, want +Inf", b)
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

// modEval is Sampled.Eval as it stood before its [0, period) fast path:
// math.Mod at every t. It is the oracle for finite times.
func modEval(s *Sampled, t float64) float64 {
	n := len(s.v)
	u := math.Mod(t, s.period)
	if u < 0 {
		u += s.period
	}
	x := u / s.period * float64(n)
	i := int(x)
	if i >= n {
		i = n - 1
	}
	frac := x - float64(i)
	j := i + 1
	if j >= n {
		j = 0
	}
	return s.v[i] + (s.v[j]-s.v[i])*frac
}

// TestSampledEvalEdges pins Eval at non-finite times (NaN, where it
// used to index out of range) and checks it bit for bit against the
// math.Mod form at t = period, at negative times, at −0, past the
// period and across random times of random waveforms.
func TestSampledEvalEdges(t *testing.T) {
	s, err := NewSampled([]float64{0.2, 0.9, 0.4, -0.3, 0.6}, 2e-4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got := s.Eval(tt); !math.IsNaN(got) {
			t.Fatalf("Eval(%v) = %v, want NaN", tt, got)
		}
	}
	same := func(s *Sampled, tt float64) {
		t.Helper()
		if got, want := s.Eval(tt), modEval(s, tt); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Eval(%v) = %v, want %v", tt, got, want)
		}
	}
	p := s.Period()
	for _, tt := range []float64{0, math.Copysign(0, -1), p, -p, -1e-300, -p / 3, math.Nextafter(p, 0), math.Nextafter(p, 2*p), 3.5 * p, -7.25 * p, 1e6 * p} {
		same(s, tt)
	}
	src := rng.New(5)
	for k := 0; k < 200; k++ {
		v := make([]float64, 2+int(src.Uint64()%300))
		for i := range v {
			v[i] = src.Float64()*2 - 0.5
		}
		w, err := NewSampled(v, 1e-4+src.Float64()*1e-3)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			same(w, (src.Float64()*3-1)*w.Period())
		}
	}
}

// TestSampledHull checks Hull against Eval on random waveforms: for
// random ranges inside one period, every Eval on a dense grid of the
// range (and at its ends) lies in the hull, within 4 ulps, and the hull
// is the range of exactly the samples Eval reads there. It also checks
// each refusal.
func TestSampledHull(t *testing.T) {
	src := rng.New(9)
	checked := 0
	for k := 0; k < 300; k++ {
		n := 2 + int(src.Uint64()%5000)
		v := make([]float64, n)
		for i := range v {
			v[i] = src.Float64()*3 - 1
		}
		s, err := NewSampled(v, 1e-5+src.Float64()*1e-3)
		if err != nil {
			t.Fatal(err)
		}
		p := s.Period()
		for r := 0; r < 20; r++ {
			t0 := src.Float64() * p
			t1 := t0 + src.Float64()*src.Float64()*(p-t0)
			lo, hi, ok := s.Hull(t0, t1)
			i0, i1 := int(t0/p*float64(n)), int(t1/p*float64(n))
			if t1 >= p || i1 >= n-1 {
				if ok {
					t.Fatalf("n=%d: Hull(%v, %v) of a wrapping range accepted", n, t0, t1)
				}
				continue
			}
			if !ok {
				t.Fatalf("n=%d: Hull(%v, %v) refused, indices %d..%d", n, t0, t1, i0, i1)
			}
			wlo, whi := v[i0], v[i0]
			for _, x := range v[i0 : i1+2] {
				wlo, whi = math.Min(wlo, x), math.Max(whi, x)
			}
			if lo != wlo || hi != whi {
				t.Fatalf("n=%d: Hull(%v, %v) = [%v, %v], want the range [%v, %v] of samples %d..%d", n, t0, t1, lo, hi, wlo, whi, i0, i1+1)
			}
			ulp := 4 * (math.Nextafter(math.Max(math.Abs(lo), math.Abs(hi)), math.Inf(1)) - math.Max(math.Abs(lo), math.Abs(hi)))
			for g := 0; g <= 64; g++ {
				tt := t0 + (t1-t0)*float64(g)/64
				if g == 64 {
					tt = t1
				}
				if y := s.Eval(tt); y < lo-ulp || y > hi+ulp {
					t.Fatalf("n=%d: Eval(%v) = %v outside Hull(%v, %v) = [%v, %v]", n, tt, y, t0, t1, lo, hi)
				}
				checked++
			}
		}
	}
	t.Logf("%d evaluations checked inside their hulls", checked)

	s, err := NewSampled([]float64{0.1, 0.5, 0.3, 0.7}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi, ok := s.Hull(0.5, 2.5); !ok || lo != 0.1 || hi != 0.7 {
		t.Fatalf("Hull(0.5, 2.5) = %v, %v, %v; want 0.1, 0.7, true", lo, hi, ok)
	}
	if lo, hi, ok := s.Hull(1, 1); !ok || lo != 0.3 || hi != 0.5 {
		t.Fatalf("Hull(1, 1) = %v, %v, %v; want 0.3, 0.5, true", lo, hi, ok)
	}
	for _, r := range []struct {
		name   string
		t0, t1 float64
	}{
		{"reversed", 2, 1},
		{"negative start", -0.5, 1},
		{"end at the period", 1, 4},
		{"end past the period", 1, 5},
		{"last segment wraps", 1, 3.5},
		{"NaN start", math.NaN(), 1},
		{"NaN end", 0, math.NaN()},
		{"infinite end", 0, math.Inf(1)},
	} {
		if _, _, ok := s.Hull(r.t0, r.t1); ok {
			t.Fatalf("Hull accepted the %s range [%v, %v]", r.name, r.t0, r.t1)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		b, err := NewSampled([]float64{0.1, 0.5, bad, 0.7, 0.2}, 5)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, ok := b.Hull(1.5, 2.5); ok {
			t.Fatalf("Hull accepted a hull holding %v", bad)
		}
		if lo, hi, ok := b.Hull(0, 0.9); !ok || lo != 0.1 || hi != 0.5 {
			t.Fatalf("Hull(0, 0.9) beside a %v sample = %v, %v, %v; want 0.1, 0.5, true", bad, lo, hi, ok)
		}
	}
}

// TestEvalIntoMatchesScalar: EvalInto is bit-identical to Eval, sample
// for sample.
func TestEvalIntoMatchesScalar(t *testing.T) {
	mt, err := NewMultitone(0.5, 5e3, []int{1, 2, 3},
		[]float64{0.22, 0.13, 0.08}, []float64{0, 0.3, -0.1})
	if err != nil {
		t.Fatal(err)
	}
	smp, err := NewSampled([]float64{0, 0.5, 1, 0.25}, 2e-4)
	if err != nil {
		t.Fatal(err)
	}
	waves := []Waveform{mt, smp}
	src := rng.New(17)
	ts := make([]float64, 512)
	for i := range ts {
		ts[i] = (src.Float64()*3 - 0.5) * 2e-4 // includes negative and wrapped times
	}
	out := make([]float64, len(ts))
	for _, w := range waves {
		EvalInto(w, ts, out)
		for i, tt := range ts {
			if want := w.Eval(tt); out[i] != want {
				t.Fatalf("%T at t=%v: EvalInto %v, Eval %v", w, tt, out[i], want)
			}
		}
	}
}

func TestEvalIntoLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	EvalInto(DC(1), make([]float64, 3), make([]float64, 2))
}
