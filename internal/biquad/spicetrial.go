package biquad

import (
	"fmt"

	"repro/internal/spice"
	"repro/internal/wave"
)

// SpiceTrialScratch carries a spice.CircuitTemplate plus the sample
// buffer one SPICE trial needs. A campaign worker owns one scratch and
// threads it through every OutputScratch call: the first call
// elaborates the Tow-Thomas netlist, compiles the template and sizes
// the buffers; every later trial only refreshes element values and
// reruns — no netlist build, no restamp layout, no allocation. Output
// serves its cache misses through a fresh scratch, so both run the same
// engine and keeping a scratch is purely a speed decision.
//
// The returned waveform aliases the scratch sample buffer and is valid
// only until the next OutputScratch call on the same scratch — exactly
// the lifetime of one trial, matching how core.TrialScratch hands its
// capture buffers to the signature layer. Like those buffers, a scratch
// is not safe for concurrent use.
type SpiceTrialScratch struct {
	tmpl    *spice.CircuitTemplate
	lp, bp  spice.NodeID
	samples []float64
	out     wave.Sampled
	// trial and q are the prepared trial and its CUT's Q (setupTrial).
	trial spice.Trial
	q     float64
}

// ensure builds the compiled template and the sample buffer when the
// scratch is fresh. Every SPICE CUT shares the Tow-Thomas topology and
// the netlist values are refreshed per trial, so one template serves
// any CUT.
func (sc *SpiceTrialScratch) ensure(s *SpiceCUT) error {
	if sc.tmpl != nil {
		return nil
	}
	ckt, nodes, err := s.comps.Netlist()
	if err != nil {
		return err
	}
	tmpl, err := spice.NewCircuitTemplate(ckt)
	if err != nil {
		return err
	}
	sc.tmpl = tmpl
	sc.lp = ckt.Node(nodes.LP)
	sc.bp = ckt.Node(nodes.BP)
	sc.samples = make([]float64, stepsPerPeriod)
	return nil
}

// refresh points the template's elements at this CUT's realization. The
// element names follow Components.Netlist: RG/RQ are the designed
// resistors, RF/R12/R23/R33 all carry the common R, and both
// integrator capacitors carry C.
func (sc *SpiceTrialScratch) refresh(comps Components) error {
	t := sc.tmpl
	if err := t.SetResistance("RG", comps.RG); err != nil {
		return err
	}
	if err := t.SetResistance("RQ", comps.RQ); err != nil {
		return err
	}
	for _, name := range [...]string{"RF", "R12", "R23", "R33"} {
		if err := t.SetResistance(name, comps.R); err != nil {
			return err
		}
	}
	if err := t.SetCapacitance("C1", comps.C); err != nil {
		return err
	}
	return t.SetCapacitance("C2", comps.C)
}

// OutputScratch is Output served through a reusable trial scratch: the
// scratch's compiled circuit template is refreshed to this CUT's
// component values and rerun, skipping netlist elaboration, template
// compilation and the per-CUT output cache. Samples are bit-identical
// to Output at any worker count. With a nil scratch it falls back to
// Output.
func (s *SpiceCUT) OutputScratch(stim *wave.Multitone, out Output, sc *SpiceTrialScratch) (wave.Waveform, error) {
	if sc == nil {
		return s.Output(stim, out)
	}
	if err := s.setupTrial(stim, out, sc); err != nil {
		return nil, err
	}
	return sc.finish(stim, out, sc.tmpl.RunTrial(sc.trial))
}

// OutputPair is OutputScratch for two CUTs at once, c0 on sc0 and c1 on
// sc1: the two transients step in lock step through
// spice.RunTrialPair, and each waveform is bit-identical to its own
// OutputScratch call. A CUT whose trial fails returns its error and the
// other runs alone. sc0 and sc1 must be distinct scratches; each
// waveform aliases its own, as OutputScratch's does.
func OutputPair(stim *wave.Multitone, out Output, c0, c1 *SpiceCUT, sc0, sc1 *SpiceTrialScratch) (w0, w1 wave.Waveform, err0, err1 error) {
	err0, err1 = c0.setupTrial(stim, out, sc0), c1.setupTrial(stim, out, sc1)
	switch {
	case err0 == nil && err1 == nil:
		run0, run1 := spice.RunTrialPair(sc0.tmpl, sc1.tmpl, sc0.trial, sc1.trial)
		w0, err0 = sc0.finish(stim, out, run0)
		w1, err1 = sc1.finish(stim, out, run1)
	case err0 == nil:
		w0, err0 = sc0.finish(stim, out, sc0.tmpl.RunTrial(sc0.trial))
	case err1 == nil:
		w1, err1 = sc1.finish(stim, out, sc1.tmpl.RunTrial(sc1.trial))
	}
	return w0, w1, err0, err1
}

// setupTrial readies sc for s's trial under stim: it builds the
// template on first use, refreshes the element values and the source,
// and prepares sc.trial — settling periods, then one recorded period of
// the observed node into sc's sample buffer.
func (s *SpiceCUT) setupTrial(stim *wave.Multitone, out Output, sc *SpiceTrialScratch) error {
	T := stim.Period()
	if T <= 0 {
		return fmt.Errorf("biquad: SPICE CUT needs a periodic stimulus")
	}
	if err := sc.ensure(s); err != nil {
		return err
	}
	// Serve tick tables from the family-wide cache: the scratch (and its
	// template) dies with the campaign invocation, the tick grids do not.
	sc.tmpl.ShareTickCache(s.ticks)
	p, err := s.comps.Params()
	if err != nil {
		return err
	}
	settle, err := settlePeriods(p, T)
	if err != nil {
		return err
	}
	if err := sc.refresh(s.comps); err != nil {
		return err
	}
	if err := sc.tmpl.SetVSourceWaveform("VIN", stim); err != nil {
		return err
	}
	node := sc.lp
	if out == OutputBP {
		node = sc.bp
	}
	settleSteps := settle * stepsPerPeriod
	sc.trial = spice.Trial{
		Dur:    T * float64(settle+1),
		Steps:  settleSteps + stepsPerPeriod,
		Record: node,
		Start:  settleSteps,
		Out:    sc.samples,
	}
	sc.q = p.Q
	return nil
}

// finish turns the samples of the trial whose transient returned err
// into the observed waveform: the band-pass re-bias, then sc's sampled
// waveform over the stimulus period.
func (sc *SpiceTrialScratch) finish(stim *wave.Multitone, out Output, err error) (wave.Waveform, error) {
	if err != nil {
		return nil, fmt.Errorf("biquad: SPICE CUT transient: %w", err)
	}
	if out == OutputBP {
		rebiasBP(sc.samples, sc.q)
	}
	if err := sc.out.Reuse(sc.samples, stim.Period()); err != nil {
		return nil, err
	}
	return &sc.out, nil
}
