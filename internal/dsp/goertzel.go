// Package dsp holds the one signal-processing primitive the campaigns
// need: the Goertzel single-bin DFT the spectral alternate-test
// baseline measures tone amplitudes with.
package dsp

import "math"

// Goertzel evaluates the DFT of real samples x (sample rate fs) at a
// single frequency f using the Goertzel recurrence — the cheap way to
// measure one tone's complex amplitude without a full FFT, used by the
// spectral alternate-test baseline. The result is normalized like a
// single-sided spectrum bin: |result| is the tone's amplitude when f
// lands on a coherent bin.
func Goertzel(x []float64, fs, f float64) complex128 {
	n := len(x)
	if n == 0 {
		return 0
	}
	w := 2 * math.Pi * f / fs
	cw, sw := math.Cos(w), math.Sin(w)
	coeff := 2 * cw
	var s0, s1, s2 float64
	for _, v := range x {
		s0 = v + coeff*s1 - s2
		s2 = s1
		s1 = s0
	}
	re := s1*cw - s2
	im := s1 * sw
	scale := 2 / float64(n)
	if f == 0 {
		scale = 1 / float64(n)
	}
	return complex(re*scale, im*scale)
}
