// Package wave generates the analog stimulus and output waveforms used
// throughout the reproduction: sinusoids, the multitone Lissajous
// excitation of the paper's Biquad experiment, DC levels, and sampled
// periods of a simulated output.
//
// A Waveform is a pure continuous-time function; sampling utilities turn
// it into uniformly spaced records for the capture and DSP layers.
// Measurement noise is not a waveform: it enters only at capture, drawn
// by the noise plan (internal/core).
package wave

import (
	"fmt"
	"math"
)

// Waveform is a continuous-time scalar signal.
//
// Eval must be a pure function of t: the same t always gives the same
// bits, whatever was evaluated before. Callers rely on it to tabulate a
// waveform once and reuse the table (the SPICE template's tick cache)
// and to evaluate points in any order. The dynamic type must also be
// comparable — a pointer, or a value type without slices or maps —
// because tick tables are keyed on the waveform with ==.
type Waveform interface {
	// Eval returns the waveform value at time t (seconds).
	Eval(t float64) float64
	// Period returns the fundamental period in seconds, or 0 if the
	// waveform is aperiodic (e.g. DC).
	Period() float64
}

// DC is a constant waveform.
type DC float64

// Eval implements Waveform.
func (d DC) Eval(float64) float64 { return float64(d) }

// Period implements Waveform; a constant has no period.
func (d DC) Period() float64 { return 0 }

// Sine is a single sinusoidal tone: Offset + Amp*sin(2π·Freq·t + Phase).
type Sine struct {
	Amp    float64 // amplitude (V)
	Freq   float64 // frequency (Hz), must be > 0
	Phase  float64 // phase (rad)
	Offset float64 // DC offset (V)
}

// Eval implements Waveform.
func (s Sine) Eval(t float64) float64 {
	return s.Offset + s.Amp*math.Sin(2*math.Pi*s.Freq*t+s.Phase)
}

// Period implements Waveform.
func (s Sine) Period() float64 {
	if s.Freq <= 0 {
		return 0
	}
	return 1 / s.Freq
}

// Tone is one component of a multitone stimulus.
type Tone struct {
	Amp   float64
	Freq  float64
	Phase float64
}

// Multitone is a sum of sinusoidal tones plus a DC offset. Tone
// frequencies should be rational multiples of each other so the composed
// Lissajous trace is periodic; NewMultitone enforces this by construction
// (integer harmonics of a fundamental).
type Multitone struct {
	Offset float64
	Tones  []Tone
	period float64
}

// NewMultitone builds a multitone from a fundamental frequency f0 (Hz) and
// harmonic descriptors: harmonics[i] gives the integer multiple, amps[i]
// and phases[i] its amplitude and phase. The resulting waveform has period
// 1/f0 divided by the GCD of the harmonic numbers.
func NewMultitone(offset, f0 float64, harmonics []int, amps, phases []float64) (*Multitone, error) {
	if f0 <= 0 {
		return nil, fmt.Errorf("wave: fundamental %g Hz must be positive", f0)
	}
	if len(harmonics) == 0 || len(harmonics) != len(amps) || len(harmonics) != len(phases) {
		return nil, fmt.Errorf("wave: harmonics/amps/phases must be equal-length and non-empty")
	}
	m := &Multitone{Offset: offset}
	g := 0
	for i, h := range harmonics {
		if h <= 0 {
			return nil, fmt.Errorf("wave: harmonic %d must be positive, got %d", i, h)
		}
		m.Tones = append(m.Tones, Tone{Amp: amps[i], Freq: float64(h) * f0, Phase: phases[i]})
		g = gcd(g, h)
	}
	m.period = 1 / (f0 * float64(g))
	return m, nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Eval implements Waveform.
func (m *Multitone) Eval(t float64) float64 {
	v := m.Offset
	for _, tn := range m.Tones {
		v += tn.Amp * math.Sin(2*math.Pi*tn.Freq*t+tn.Phase)
	}
	return v
}

// Period implements Waveform.
func (m *Multitone) Period() float64 { return m.period }

// CurvatureBound returns M2 = Σ|Amp|·(2π·Freq)², a bound on the second
// derivative of the waveform at every t, rounded up by a relative 1e-12
// so the floating-point sum cannot fall below the exact one. A NaN or
// infinite amplitude makes it NaN or +Inf: no bound.
func (m *Multitone) CurvatureBound() float64 {
	m2 := 0.0
	for _, tn := range m.Tones {
		w := 2 * math.Pi * tn.Freq
		m2 += math.Abs(tn.Amp) * w * w
	}
	return m2 * (1 + 1e-12)
}

// PeakToPeak returns a conservative bound on the waveform swing:
// offset ± sum of amplitudes.
func (m *Multitone) PeakToPeak() (lo, hi float64) {
	sum := 0.0
	for _, tn := range m.Tones {
		sum += math.Abs(tn.Amp)
	}
	return m.Offset - sum, m.Offset + sum
}

// Sampled is a periodic waveform defined by n uniform samples over one
// period — sample i sits at phase i·period/n and the segment from the
// last sample wraps back to the first. Eval interpolates linearly with
// wraparound. It is how a numerically simulated steady-state output
// (e.g. a SPICE transient period) re-enters the continuous-time
// signal-path as a first-class Waveform.
type Sampled struct {
	v      []float64
	period float64
}

// NewSampled builds a periodic sampled waveform; the samples are copied.
func NewSampled(samples []float64, period float64) (*Sampled, error) {
	if len(samples) < 2 {
		return nil, fmt.Errorf("wave: sampled waveform needs >= 2 samples, got %d", len(samples))
	}
	if period <= 0 || math.IsInf(period, 0) || math.IsNaN(period) {
		return nil, fmt.Errorf("wave: sampled waveform period %g must be positive and finite", period)
	}
	return &Sampled{v: append([]float64(nil), samples...), period: period}, nil
}

// Reuse repoints s at the caller's sample buffer, with NewSampled's
// validation. Unlike NewSampled the samples are aliased, not copied:
// the waveform is valid only until the caller overwrites the buffer.
// It exists for the SPICE trial scratch, which refills one sample
// buffer per trial and re-issues it as a Waveform without allocating.
func (s *Sampled) Reuse(samples []float64, period float64) error {
	if len(samples) < 2 {
		return fmt.Errorf("wave: sampled waveform needs >= 2 samples, got %d", len(samples))
	}
	if period <= 0 || math.IsInf(period, 0) || math.IsNaN(period) {
		return fmt.Errorf("wave: sampled waveform period %g must be positive and finite", period)
	}
	s.v = samples
	s.period = period
	return nil
}

// Eval implements Waveform by linear interpolation between the two
// neighbouring samples, wrapping modulo the period. A non-finite t
// gives NaN.
func (s *Sampled) Eval(t float64) float64 {
	n := len(s.v)
	u := t // math.Mod returns t itself on [0, period)
	if !(t >= 0 && t < s.period) {
		if math.IsNaN(t) || math.IsInf(t, 0) {
			return math.NaN()
		}
		u = math.Mod(t, s.period)
		if u < 0 {
			u += s.period
		}
	}
	x := u / s.period * float64(n)
	i := int(x)
	if i >= n { // guards the u == period rounding corner
		i = n - 1
	}
	frac := x - float64(i)
	j := i + 1
	if j >= n {
		j = 0
	}
	return s.v[i] + (s.v[j]-s.v[i])*frac
}

// Period implements Waveform.
func (s *Sampled) Period() float64 { return s.period }

// Hull returns the smallest and largest sample that Eval interpolates
// between for any t in [t0, t1], so Eval's value there lies in
// [lo, hi] up to its rounding (a few ulps of the samples). It computes
// the sample index with Eval's own expression, which is monotone in t on
// [0, period). It refuses (ok false) a reversed range, a range outside
// [0, period), one whose last segment wraps back to the first sample,
// and a hull holding a NaN or an infinite sample.
func (s *Sampled) Hull(t0, t1 float64) (lo, hi float64, ok bool) {
	n := len(s.v)
	if !(t0 >= 0 && t0 <= t1 && t1 < s.period) {
		return 0, 0, false
	}
	i0, i1 := int(t0/s.period*float64(n)), int(t1/s.period*float64(n))
	if i1 >= n-1 {
		return 0, 0, false
	}
	lo, hi = s.v[i0], s.v[i0]
	for _, v := range s.v[i0+1 : i1+2] {
		lo, hi = min(lo, v), max(hi, v)
	}
	if math.IsNaN(lo) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
		return 0, 0, false
	}
	return lo, hi, true
}

// Record is a uniformly sampled waveform segment.
type Record struct {
	T  []float64 // sample times (s)
	V  []float64 // sample values
	Fs float64   // sample rate (Hz)
}

// Sample records w over [0, dur) at sample rate fs.
func Sample(w Waveform, dur, fs float64) Record {
	n := int(math.Round(dur * fs))
	if n < 1 {
		n = 1
	}
	rec := Record{
		T:  make([]float64, n),
		V:  make([]float64, n),
		Fs: fs,
	}
	for i := 0; i < n; i++ {
		t := float64(i) / fs
		rec.T[i] = t
		rec.V[i] = w.Eval(t)
	}
	return rec
}

// EvalInto samples w at the given times into out: out[i] = w.Eval(ts[i]).
// It panics when the buffer lengths differ.
//
//mclint:hotpath
func EvalInto(w Waveform, ts, out []float64) {
	if len(ts) != len(out) {
		panic("wave: EvalInto needs len(ts) == len(out)")
	}
	for i, t := range ts {
		out[i] = w.Eval(t)
	}
}

// SamplePeriods records exactly nPeriods of a periodic waveform with
// samplesPerPeriod points per period. It panics for aperiodic waveforms.
func SamplePeriods(w Waveform, nPeriods, samplesPerPeriod int) Record {
	p := w.Period()
	if p <= 0 {
		panic("wave: SamplePeriods needs a periodic waveform")
	}
	fs := float64(samplesPerPeriod) / p
	return Sample(w, p*float64(nPeriods), fs)
}
