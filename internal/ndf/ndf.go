// Package ndf implements the paper's test metric (Eq. 2): the Normalized
// Discrepancy Factor
//
//	NDF = (1/T) ∫₀ᵀ d_H(S_O(t), S_G(t)) dt,
//
// the time-average of the Hamming distance between the observed and
// golden instantaneous zone codes, plus the pass/fail decision machinery
// of Section IV.C (acceptance bands, threshold calibration from a
// tolerance specification, and detection statistics under noise).
package ndf

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/signature"
)

// ErrPeriodMismatch is returned when the two signatures do not share a
// common period (the capture must observe both over the same stimulus).
var ErrPeriodMismatch = errors.New("ndf: signatures have different periods")

// NDF computes the exact Eq. 2 integral between an observed and a golden
// signature by sweeping the merged breakpoints of both piecewise-constant
// code functions — no sampling error. When the durations of one
// signature sum to less than the period (Validate allows 1e-6·T), its
// last entry holds until the other signature's last entry ends or T,
// whichever comes first. When both fall short of T, the rest of the
// period up to T is not counted.
func NDF(observed, golden *signature.Signature) (float64, error) {
	if err := observed.Validate(); err != nil {
		return 0, fmt.Errorf("ndf: observed: %w", err)
	}
	if err := golden.Validate(); err != nil {
		return 0, fmt.Errorf("ndf: golden: %w", err)
	}
	T := golden.Period
	if math.Abs(observed.Period-T) > 1e-9*T {
		return 0, fmt.Errorf("%w: %g vs %g", ErrPeriodMismatch, observed.Period, T)
	}
	// Merged breakpoint sweep.
	type cursor struct {
		entries []signature.Entry
		idx     int
		end     float64 // end time of current entry
	}
	co := &cursor{entries: observed.Entries, end: observed.Entries[0].Dur}
	cg := &cursor{entries: golden.Entries, end: golden.Entries[0].Dur}
	t := 0.0
	integral := 0.0
	for t < T-1e-15*T {
		next := math.Min(co.end, cg.end)
		if next <= t {
			// The cursor that ends first is on its last entry, which
			// holds until the other one, which ends after t, ends.
			next = math.Max(co.end, cg.end)
		}
		if next > T {
			next = T
		}
		d := co.entries[co.idx].Code.HammingDistance(cg.entries[cg.idx].Code)
		integral += float64(d) * (next - t)
		t = next
		for co.idx < len(co.entries)-1 && co.end <= t+1e-15*T {
			co.idx++
			co.end += co.entries[co.idx].Dur
		}
		for cg.idx < len(cg.entries)-1 && cg.end <= t+1e-15*T {
			cg.idx++
			cg.end += cg.entries[cg.idx].Dur
		}
		if t >= co.end && co.idx == len(co.entries)-1 && t >= cg.end && cg.idx == len(cg.entries)-1 {
			break
		}
	}
	return integral / T, nil
}

// Sampled approximates Eq. 2 with n uniform samples — the form a simple
// software post-processor would use; tests verify convergence to NDF.
func Sampled(observed, golden *signature.Signature, n int) (float64, error) {
	if n < 1 {
		return 0, fmt.Errorf("ndf: need at least 1 sample")
	}
	T := golden.Period
	if math.Abs(observed.Period-T) > 1e-9*T {
		return 0, ErrPeriodMismatch
	}
	sum := 0
	// Sample times are increasing: cumulative cursors answer each lookup
	// in amortized O(1) instead of At's per-call entry scan.
	co, cg := observed.Cursor(), golden.Cursor()
	for i := 0; i < n; i++ {
		t := T * (float64(i) + 0.5) / float64(n)
		sum += co.At(t).HammingDistance(cg.At(t))
	}
	return float64(sum) / float64(n), nil
}

// HammingChronogram samples d_H(S_O(t), S_G(t)) at n uniform instants —
// the lower plot of Fig. 7.
func HammingChronogram(observed, golden *signature.Signature, n int) (times []float64, dist []int) {
	T := golden.Period
	times = make([]float64, n)
	dist = make([]int, n)
	co, cg := observed.Cursor(), golden.Cursor()
	for i := 0; i < n; i++ {
		t := T * float64(i) / float64(n)
		times[i] = t
		dist[i] = co.At(t).HammingDistance(cg.At(t))
	}
	return times, dist
}

// Decision is a calibrated pass/fail test: circuits whose NDF stays at or
// below Threshold are accepted.
type Decision struct {
	Threshold float64
}

// Pass reports whether the measured NDF falls in the acceptance band.
func (d Decision) Pass(ndf float64) bool { return ndf <= d.Threshold }

// CalibrateThreshold derives the acceptance threshold from a measured
// NDF-vs-deviation characteristic (the Fig. 8 curve) and a tolerance
// specification: the threshold is the largest NDF observed inside the
// tolerance band |dev| <= tol, linearly interpolating the characteristic
// at the band edges.
func CalibrateThreshold(devs, ndfs []float64, tol float64) (Decision, error) {
	if len(devs) != len(ndfs) || len(devs) < 2 {
		return Decision{}, fmt.Errorf("ndf: calibration needs matched sweep data")
	}
	if tol <= 0 {
		return Decision{}, fmt.Errorf("ndf: tolerance must be positive")
	}
	idx := make([]int, len(devs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return devs[idx[a]] < devs[idx[b]] })
	interp := func(x float64) float64 {
		// Piecewise-linear interpolation over the sorted sweep.
		lo, hi := idx[0], idx[len(idx)-1]
		if x <= devs[lo] {
			return ndfs[lo]
		}
		if x >= devs[hi] {
			return ndfs[hi]
		}
		for k := 1; k < len(idx); k++ {
			a, b := idx[k-1], idx[k]
			if x <= devs[b] {
				if devs[b] == devs[a] {
					return ndfs[a]
				}
				f := (x - devs[a]) / (devs[b] - devs[a])
				return ndfs[a]*(1-f) + ndfs[b]*f
			}
		}
		return ndfs[hi]
	}
	thr := math.Max(interp(-tol), interp(tol))
	// The threshold must also cover every sweep point inside the band
	// (non-monotone noise floors).
	for i, d := range devs {
		if d >= -tol && d <= tol && ndfs[i] > thr {
			thr = ndfs[i]
		}
	}
	return Decision{Threshold: thr}, nil
}
