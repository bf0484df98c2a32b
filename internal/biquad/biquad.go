// Package biquad models the paper's circuit under test: a second-order
// low-pass ("Biquad") filter. It provides
//
//   - the s-domain transfer function and exact steady-state response to
//     multitone stimuli (how the golden and deviated Lissajous curves of
//     Fig. 1/6 are generated),
//   - a Tow-Thomas RC realization mapping component values to (f0, Q,
//     gain) so parametric and catastrophic component faults can be
//     injected the way a defect would move them, and
//   - a RK4 time-domain integrator used to validate the analytic path
//     and to support non-sinusoidal stimuli.
package biquad

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/wave"
)

// Params are the behavioural parameters of the low-pass biquad
//
//	H(s) = Gain · ω0² / (s² + (ω0/Q)·s + ω0²).
type Params struct {
	F0   float64 // natural frequency, Hz
	Q    float64 // quality factor
	Gain float64 // DC gain (positive; the Tow-Thomas inversion is absorbed)
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if p.F0 <= 0 {
		return fmt.Errorf("biquad: F0 = %g Hz must be positive", p.F0)
	}
	if p.Q <= 0 {
		return fmt.Errorf("biquad: Q = %g must be positive", p.Q)
	}
	if p.Gain <= 0 {
		return fmt.Errorf("biquad: gain = %g must be positive", p.Gain)
	}
	return nil
}

// WithF0Shift returns parameters with the natural frequency shifted by
// the given fraction (e.g. +0.10 for the paper's "+10% shift in f0").
func (p Params) WithF0Shift(frac float64) Params {
	out := p
	out.F0 = p.F0 * (1 + frac)
	return out
}

// Filter is an immutable biquad instance.
type Filter struct {
	p  Params
	w0 float64
}

// New creates a filter from behavioural parameters.
func New(p Params) (*Filter, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Filter{p: p, w0: 2 * math.Pi * p.F0}, nil
}

// Response returns H(j·2π·freq).
func (f *Filter) Response(freq float64) complex128 {
	s := complex(0, 2*math.Pi*freq)
	w0 := complex(f.w0, 0)
	num := complex(f.p.Gain, 0) * w0 * w0
	den := s*s + s*w0/complex(f.p.Q, 0) + w0*w0
	return num / den
}

// ResponseBP returns the band-pass transfer function of the same
// Tow-Thomas realization (the first integrator output),
//
//	H_BP(s) = Gain · (ω0/Q)·s / (s² + (ω0/Q)·s + ω0²),
//
// normalized so |H_BP(jω0)| = Gain. The Q-verification extension
// observes this output because Q deviations move the band-pass peak
// directly while barely changing the low-pass passband.
func (f *Filter) ResponseBP(freq float64) complex128 {
	s := complex(0, 2*math.Pi*freq)
	w0 := complex(f.w0, 0)
	q := complex(f.p.Q, 0)
	num := complex(f.p.Gain, 0) * (w0 / q) * s
	den := s*s + s*w0/q + w0*w0
	return num / den
}

// SteadyStateBP is the band-pass counterpart of SteadyState. The DC
// offset of the stimulus is blocked (H_BP(0) = 0), so the output is
// re-biased to the given level — in hardware an AC-coupled level shift
// in front of the monitor.
func (f *Filter) SteadyStateBP(in *wave.Multitone, rebias float64) *wave.Multitone {
	out := &wave.Multitone{Offset: rebias}
	for _, t := range in.Tones {
		h := f.ResponseBP(t.Freq)
		out.Tones = append(out.Tones, wave.Tone{
			Amp:   t.Amp * cmplx.Abs(h),
			Freq:  t.Freq,
			Phase: t.Phase + cmplx.Phase(h),
		})
	}
	return withPeriodOf(out, in)
}

// SteadyState returns the exact steady-state output of the filter for a
// multitone input: DC scaled by H(0) = Gain, each tone scaled by |H| and
// shifted by arg H. This is the Lissajous y(t) generator.
func (f *Filter) SteadyState(in *wave.Multitone) *wave.Multitone {
	out := &wave.Multitone{Offset: in.Offset * f.p.Gain}
	for _, t := range in.Tones {
		h := f.Response(t.Freq)
		out.Tones = append(out.Tones, wave.Tone{
			Amp:   t.Amp * cmplx.Abs(h),
			Freq:  t.Freq,
			Phase: t.Phase + cmplx.Phase(h),
		})
	}
	// The output shares the input's periodicity.
	return withPeriodOf(out, in)
}

// withPeriodOf copies the unexported period from src; both waveforms have
// identical tone frequencies so this is exact.
func withPeriodOf(dst, src *wave.Multitone) *wave.Multitone {
	// Rebuild through the constructor to keep the invariant honest:
	// recover fundamental and harmonic structure from src.
	p := src.Period()
	if p <= 0 {
		return dst
	}
	f0 := 1 / p
	harmonics := make([]int, len(dst.Tones))
	amps := make([]float64, len(dst.Tones))
	phases := make([]float64, len(dst.Tones))
	for i, t := range dst.Tones {
		harmonics[i] = int(math.Round(t.Freq / f0))
		amps[i] = t.Amp
		phases[i] = t.Phase
	}
	out, err := wave.NewMultitone(dst.Offset, f0, harmonics, amps, phases)
	if err != nil {
		// Unreachable for well-formed inputs; keep dst as a fallback.
		return dst
	}
	return out
}

// Transient integrates the filter ODE
//
//	v' = w,   w' = Gain·ω0²·u(t) − ω0²·v − (ω0/Q)·w
//
// with classic RK4 at fixed step dt over [0, dur], starting from rest.
// It returns the sampled output v(t) on the same grid as wave.Sample.
func (f *Filter) Transient(u wave.Waveform, dur, dt float64) wave.Record {
	n := int(math.Round(dur / dt))
	if n < 1 {
		n = 1
	}
	rec := wave.Record{
		T:  make([]float64, n),
		V:  make([]float64, n),
		Fs: 1 / dt,
	}
	w0 := f.w0
	w02 := w0 * w0
	damp := w0 / f.p.Q
	g := f.p.Gain
	deriv := func(t, v, w float64) (dv, dw float64) {
		return w, g*w02*u.Eval(t) - w02*v - damp*w
	}
	v, w := 0.0, 0.0
	for i := 0; i < n; i++ {
		t := float64(i) * dt
		rec.T[i] = t
		rec.V[i] = v
		k1v, k1w := deriv(t, v, w)
		k2v, k2w := deriv(t+dt/2, v+dt/2*k1v, w+dt/2*k1w)
		k3v, k3w := deriv(t+dt/2, v+dt/2*k2v, w+dt/2*k2w)
		k4v, k4w := deriv(t+dt, v+dt*k3v, w+dt*k3w)
		v += dt / 6 * (k1v + 2*k2v + 2*k3v + k4v)
		w += dt / 6 * (k1w + 2*k2w + 2*k3w + k4w)
	}
	return rec
}
