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
	T := stim.Period()
	if T <= 0 {
		return nil, fmt.Errorf("biquad: SPICE CUT needs a periodic stimulus")
	}
	if err := sc.ensure(s); err != nil {
		return nil, err
	}
	// Serve tick tables from the family-wide cache: the scratch (and its
	// template) dies with the campaign invocation, the tick grids do not.
	sc.tmpl.ShareTickCache(s.ticks)
	p, err := s.comps.Params()
	if err != nil {
		return nil, err
	}
	settle, err := settlePeriods(p, T)
	if err != nil {
		return nil, err
	}
	if err := sc.refresh(s.comps); err != nil {
		return nil, err
	}
	if err := sc.tmpl.SetVSourceWaveform("VIN", stim); err != nil {
		return nil, err
	}
	node := sc.lp
	if out == OutputBP {
		node = sc.bp
	}
	samples := sc.samples
	settleSteps := settle * stepsPerPeriod
	err = sc.tmpl.RunTrial(spice.Trial{
		Dur:    T * float64(settle+1),
		Steps:  settleSteps + stepsPerPeriod,
		Record: node,
		Start:  settleSteps,
		Out:    samples,
	})
	if err != nil {
		return nil, fmt.Errorf("biquad: SPICE CUT transient: %w", err)
	}
	if out == OutputBP {
		rebiasBP(samples, p.Q)
	}
	if err := sc.out.Reuse(samples, T); err != nil {
		return nil, err
	}
	return &sc.out, nil
}
