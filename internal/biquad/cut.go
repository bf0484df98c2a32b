package biquad

import (
	"fmt"
	"strings"

	"repro/internal/wave"
)

// Output selects which filter output a CUT backend exposes to the
// monitor: the paper observes the low-pass output; the band-pass output
// is the Q-verification extension's observation.
type Output int

// Output selectors.
const (
	OutputLP Output = iota
	OutputBP
)

// BPRebias is the mid-rail level the band-pass observation is re-biased
// to (the band-pass path blocks the stimulus DC, so hardware inserts an
// AC-coupled level shift in front of the monitor).
const BPRebias = 0.5

// DefaultCapacitorF is the integrator capacitor every campaign's
// Tow-Thomas realization is designed around (1 nF).
const DefaultCapacitorF = 1e-9

// Deviation describes a perturbation of a CUT. Behavioural shifts move
// the (f0, Q, gain) triple fractionally; component drifts and faults act
// on the Tow-Thomas realization, the way a physical defect would. A zero
// Deviation is the identity.
type Deviation struct {
	// Fractional behavioural shifts: F0Shift = +0.10 is the paper's
	// "+10% shift in f0".
	F0Shift, QShift, GainShift float64
	// Fractional component drifts of the Tow-Thomas realization
	// (tolerance sampling in the yield study draws these per die).
	RDrift, RQDrift, RGDrift, CDrift float64
	// Fault, when non-nil, is injected into the realization before the
	// drifts are applied.
	Fault *Fault
}

// componentLevel reports whether the deviation touches the realization
// (as opposed to pure behavioural-parameter shifts).
func (d Deviation) componentLevel() bool {
	return d.Fault != nil || d.RDrift != 0 || d.RQDrift != 0 || d.RGDrift != 0 || d.CDrift != 0
}

// behavioural reports whether any (f0, Q, gain) shift is present.
func (d Deviation) behavioural() bool {
	return d.F0Shift != 0 || d.QShift != 0 || d.GainShift != 0
}

// String implements fmt.Stringer, composing every present deviation
// class so mixed deviations are described in full.
func (d Deviation) String() string {
	var parts []string
	if d.Fault != nil {
		parts = append(parts, d.Fault.String())
	}
	if d.RDrift != 0 || d.RQDrift != 0 || d.RGDrift != 0 || d.CDrift != 0 {
		parts = append(parts, fmt.Sprintf("drift(R%+.2g%% RQ%+.2g%% RG%+.2g%% C%+.2g%%)",
			d.RDrift*100, d.RQDrift*100, d.RGDrift*100, d.CDrift*100))
	}
	if d.behavioural() || len(parts) == 0 {
		parts = append(parts, fmt.Sprintf("shift(f0%+.2g%% Q%+.2g%% G%+.2g%%)",
			d.F0Shift*100, d.QShift*100, d.GainShift*100))
	}
	return strings.Join(parts, "+")
}

// apply resolves the deviation against a component realization and its
// behavioural parameters, returning the perturbed pair. Component-level
// changes go through the realization (fault first, then drifts) and the
// behavioural parameters are re-derived from it; behavioural shifts are
// then applied on top and, when present, the realization is redesigned
// around the (possibly drifted) capacitor so the pair stays consistent.
func (d Deviation) apply(p Params, comps Components) (Params, Components, error) {
	if d.componentLevel() {
		if d.Fault != nil {
			comps = d.Fault.Apply(comps)
		}
		comps.R *= 1 + d.RDrift
		comps.RQ *= 1 + d.RQDrift
		comps.RG *= 1 + d.RGDrift
		comps.C *= 1 + d.CDrift
		var err error
		p, err = comps.Params()
		if err != nil {
			return Params{}, Components{}, err
		}
	}
	p.F0 *= 1 + d.F0Shift
	p.Q *= 1 + d.QShift
	p.Gain *= 1 + d.GainShift
	if err := p.Validate(); err != nil {
		return Params{}, Components{}, err
	}
	if d.behavioural() {
		var err error
		comps, err = DesignTowThomas(p, comps.C)
		if err != nil {
			return Params{}, Components{}, err
		}
	}
	return p, comps, nil
}

// CUT is a circuit-under-test backend: something that can produce the
// observed steady-state output waveform for a periodic stimulus, spawn
// perturbed copies of itself, and describe itself. The campaign layer
// (sweeps, fault tables, yield and noise studies) is written against
// this interface, so every experiment runs unchanged on the analytic
// Tow-Thomas model or on the SPICE netlist engine.
//
// Implementations must be safe for concurrent use after construction:
// campaign workers share the golden CUT and call Output concurrently.
type CUT interface {
	// Output returns the steady-state periodic output observed at the
	// selected node for the given stimulus.
	Output(stim *wave.Multitone, out Output) (wave.Waveform, error)
	// Perturb returns an independent CUT with the deviation applied on
	// top of this one.
	Perturb(dev Deviation) (CUT, error)
	// Params returns the behavioural (f0, Q, gain) description of the
	// CUT (for SPICE-level backends, derived from the design equations
	// of the realization).
	Params() Params
	// Describe returns a short human-readable backend description.
	Describe() string
}

// AnalyticCUT is the closed-form backend: outputs come from the exact
// s-domain transfer function (SteadyState/SteadyStateBP). It carries a
// Tow-Thomas realization alongside the behavioural parameters so
// component-level deviations (faults, tolerance drifts) land exactly
// where a defect would.
type AnalyticCUT struct {
	p     Params
	comps Components
}

// NewAnalyticCUT builds the analytic backend for the given behavioural
// parameters, realizing them with the default 1 nF capacitor.
func NewAnalyticCUT(p Params) (*AnalyticCUT, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	comps, err := DesignTowThomas(p, DefaultCapacitorF)
	if err != nil {
		return nil, err
	}
	return &AnalyticCUT{p: p, comps: comps}, nil
}

// Output implements CUT with the exact steady-state response.
func (a *AnalyticCUT) Output(stim *wave.Multitone, out Output) (wave.Waveform, error) {
	f, err := New(a.p)
	if err != nil {
		return nil, err
	}
	if out == OutputBP {
		return f.SteadyStateBP(stim, BPRebias), nil
	}
	return f.SteadyState(stim), nil
}

// Perturb implements CUT.
func (a *AnalyticCUT) Perturb(dev Deviation) (CUT, error) {
	p, comps, err := dev.apply(a.p, a.comps)
	if err != nil {
		return nil, err
	}
	return &AnalyticCUT{p: p, comps: comps}, nil
}

// Params implements CUT.
func (a *AnalyticCUT) Params() Params { return a.p }

// Describe implements CUT.
func (a *AnalyticCUT) Describe() string {
	return fmt.Sprintf("analytic Tow-Thomas biquad (f0=%.4g Hz, Q=%.3g, gain=%.3g)",
		a.p.F0, a.p.Q, a.p.Gain)
}
