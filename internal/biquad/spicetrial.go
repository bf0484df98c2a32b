package biquad

import (
	"fmt"
	"math"

	"repro/internal/spice"
	"repro/internal/wave"
)

// SpiceTrialScratch carries a per-worker spice.CircuitTemplate plus the
// sample buffer one SPICE trial needs. A campaign worker owns one
// scratch and threads it through every OutputScratch call: the first
// call elaborates the Tow-Thomas netlist, compiles the template and
// sizes the buffers; every later trial only refreshes element values
// and reruns — no parse, no restamp layout, no allocation. Results are
// bit-identical to SpiceCUT.Output (the tests pin this), so routing
// through a scratch is purely a speed decision.
//
// The returned waveform aliases the scratch sample buffer and is valid
// only until the next OutputScratch call on the same scratch — exactly
// the lifetime of one trial, matching how core.TrialScratch hands its
// capture buffers to the signature layer. Like those buffers, a scratch
// is not safe for concurrent use.
type SpiceTrialScratch struct {
	cfg     SpiceConfig
	tmpl    *spice.CircuitTemplate
	lp, bp  spice.NodeID
	samples []float64
	out     wave.Sampled

	// Per-prepared-trial state consumed by finishTrial.
	p   Params
	T   float64
	obs Output
	cur []float64
}

// ensure (re)builds the compiled template when the scratch is fresh or
// the CUT's configuration changed. The netlist values are refreshed per
// trial, so the template itself only depends on the topology and cfg.
func (sc *SpiceTrialScratch) ensure(s *SpiceCUT) error {
	if sc.tmpl != nil && sc.cfg == s.cfg {
		return nil
	}
	ckt, nodes, err := s.comps.Netlist()
	if err != nil {
		return err
	}
	tmpl, err := spice.NewCircuitTemplate(ckt, s.cfg.Options)
	if err != nil {
		return err
	}
	sc.tmpl = tmpl
	sc.lp = ckt.Node(nodes.LP)
	sc.bp = ckt.Node(nodes.BP)
	sc.cfg = s.cfg
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

// settlingPeriods is New(p).SettlingPeriods(period, frac) without the
// Filter allocation — expression-for-expression identical so the
// template path settles for exactly as many periods as the rebuild
// path.
func settlingPeriods(p Params, period, frac float64) (int, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if frac <= 0 || frac >= 1 {
		frac = 0.01
	}
	w0 := 2 * math.Pi * p.F0
	tau := 2 * p.Q / w0
	t := -tau * math.Log(frac)
	return int(math.Ceil(t / period)), nil
}

// OutputScratch is Output served through a reusable trial scratch: the
// scratch's compiled circuit template is refreshed to this CUT's
// component values and rerun, skipping netlist elaboration, solver
// construction and the per-CUT output cache. Samples are bit-identical
// to Output at any worker count. With a nil scratch it falls back to
// Output, the rebuild-per-trial reference path.
func (s *SpiceCUT) OutputScratch(stim *wave.Multitone, out Output, sc *SpiceTrialScratch) (wave.Waveform, error) {
	if sc == nil {
		return s.Output(stim, out)
	}
	tr, err := s.prepareTrial(stim, out, sc)
	if err != nil {
		return nil, err
	}
	if err := sc.tmpl.RunTrial(tr); err != nil {
		return nil, fmt.Errorf("biquad: SPICE CUT transient: %w", err)
	}
	return sc.finishTrial()
}

// prepareTrial readies sc's template for one trial of this CUT — ensure
// the compiled template, refresh element values and stimulus, size the
// sample window — and returns the trial spec. finishTrial consumes the
// state it leaves in sc.
func (s *SpiceCUT) prepareTrial(stim *wave.Multitone, out Output, sc *SpiceTrialScratch) (spice.Trial, error) {
	T := stim.Period()
	if T <= 0 {
		return spice.Trial{}, fmt.Errorf("biquad: SPICE CUT needs a periodic stimulus")
	}
	if err := sc.ensure(s); err != nil {
		return spice.Trial{}, err
	}
	// Serve tick tables from the family-wide cache: the scratch (and its
	// template) dies with the campaign invocation, the tick grids do not.
	sc.tmpl.ShareTickCache(s.ticks)
	p, err := s.comps.Params()
	if err != nil {
		return spice.Trial{}, err
	}
	settle, err := settlingPeriods(p, T, s.cfg.SettleFrac)
	if err != nil {
		return spice.Trial{}, err
	}
	if settle < 1 {
		settle = 1
	}
	if settle > s.cfg.MaxSettlePeriods {
		settle = s.cfg.MaxSettlePeriods
	}
	if err := sc.refresh(s.comps); err != nil {
		return spice.Trial{}, err
	}
	if err := sc.tmpl.SetVSourceWaveform("VIN", stim); err != nil {
		return spice.Trial{}, err
	}
	node := sc.lp
	if out == OutputBP {
		node = sc.bp
	}
	n := s.cfg.StepsPerPeriod
	if cap(sc.samples) < n {
		sc.samples = make([]float64, n)
	}
	sc.p, sc.T, sc.obs = p, T, out
	sc.cur = sc.samples[:n]
	settleSteps := settle * n
	return spice.Trial{
		Dur:    T * float64(settle+1),
		Steps:  settleSteps + n,
		Record: node,
		Start:  settleSteps,
		Out:    sc.cur,
	}, nil
}

// SpiceTrialBatch is the lane pool of the batched trial engine: up to
// spice/num.BatchLanes trials in flight, each on its own scratch, run
// in lockstep through the fused solve kernel. Reuse one batch across
// OutputBatch calls to keep the lanes' templates warm.
type SpiceTrialBatch struct {
	lanes []SpiceTrialScratch
	ts    []*spice.CircuitTemplate
}

// OutputBatch streams one observation per CUT through a pool of trial
// lanes — the cross-trial batched transient engine. Trials run
// interleaved (several independent per-step solve chains in flight, see
// spice.RunTrialsBatch), so a block of trials clears in well under the
// sequential per-trial time, while every trial still executes exactly
// the rebuild path's floating-point sequence: emitted waveforms are
// bit-identical to cuts[i].Output(stim, out).
//
// emit(i, w) is called once per CUT, in completion order (not index
// order); w aliases lane scratch and is valid only inside the call.
// The CUTs must share one configuration — a mixed block, or a nil batch,
// falls back to the sequential scratch path.
func SpiceOutputBatch(cuts []*SpiceCUT, stim *wave.Multitone, out Output, sb *SpiceTrialBatch, emit func(i int, w wave.Waveform) error) error {
	if len(cuts) == 0 {
		return nil
	}
	sequential := sb == nil
	for _, c := range cuts {
		if c.cfg != cuts[0].cfg {
			sequential = true
		}
	}
	if sequential {
		var sc SpiceTrialScratch
		for i, c := range cuts {
			w, err := c.OutputScratch(stim, out, &sc)
			if err != nil {
				return err
			}
			if err := emit(i, w); err != nil {
				return err
			}
		}
		return nil
	}
	lanes := spice.BatchLanes
	if lanes > len(cuts) {
		lanes = len(cuts)
	}
	for len(sb.lanes) < lanes {
		sb.lanes = append(sb.lanes, SpiceTrialScratch{})
	}
	// Warm every lane's template against the first CUT (they all share
	// the netlist topology and config) so the template pointers exist
	// before the batch starts; per-trial prepare only refreshes values.
	sb.ts = sb.ts[:0]
	for l := 0; l < lanes; l++ {
		if err := sb.lanes[l].ensure(cuts[0]); err != nil {
			return err
		}
		sb.ts = append(sb.ts, sb.lanes[l].tmpl)
	}
	return spice.RunTrialsBatch(sb.ts, len(cuts),
		func(i, lane int) (spice.Trial, error) {
			return cuts[i].prepareTrial(stim, out, &sb.lanes[lane])
		},
		func(i, lane int) error {
			w, err := sb.lanes[lane].finishTrial()
			if err != nil {
				return err
			}
			return emit(i, w)
		})
}

// finishTrial turns the samples a completed trial left in sc into the
// observed waveform (the BP node carries −Q·H_BP, rescaled and rebiased
// exactly as Output does).
func (sc *SpiceTrialScratch) finishTrial() (wave.Waveform, error) {
	samples := sc.cur
	if sc.obs == OutputBP {
		for i := range samples {
			samples[i] = BPRebias - samples[i]/sc.p.Q
		}
	}
	if err := sc.out.Reuse(samples, sc.T); err != nil {
		return nil, err
	}
	return &sc.out, nil
}
