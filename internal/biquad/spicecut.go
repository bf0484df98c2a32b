package biquad

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/spice"
	"repro/internal/wave"
)

// Transient settings of the SPICE CUT. No caller tunes them.
const (
	// stepsPerPeriod is the transient resolution of the captured
	// steady-state period: interpolation error orders of magnitude below
	// the capture quantization.
	stepsPerPeriod = 2048
	// settleFrac is the residual transient fraction the pre-capture
	// settling aims for.
	settleFrac = 1e-3
	// maxSettlePeriods caps the settling time. Catastrophic faults can
	// push Q — and with it the exact settling time — beyond any
	// practical bound; a capped settle mirrors a real tester's finite
	// soak and still exposes the fault to the signature.
	maxSettlePeriods = 16
)

// SpiceCUT is the circuit-level backend: the Tow-Thomas realization is
// elaborated into an opamp-RC netlist (Components.Netlist) and the
// observed output is produced by a transient analysis — settle periods
// to decay the start-up transient, then one steady-state period sampled
// into a periodic waveform. The transient runs on a compiled
// spice.CircuitTemplate, the one production transient engine: Output
// and OutputScratch differ only in who owns the template.
//
// The computed output is cached per observation: concurrent campaign
// workers asking for the same CUT's output run the transient once.
type SpiceCUT struct {
	comps Components
	// ticks is the family-wide stimulus tick cache, shared by every CUT
	// perturbed from one root. Templates are short-lived — Output builds
	// one per cache miss and campaigns rebuild their worker scratches
	// per invocation — so the cache lives here, with the family, and
	// each settling class's stimulus grid is evaluated once per process
	// rather than once per template.
	ticks *spice.TickCache

	mu   sync.Mutex
	outs map[outputKey]*wave.Sampled
	// lru orders the cached keys least-recently-used first; Output evicts
	// only the front entry when the cache fills, so a stimulus sweep
	// cycling past maxOutputCache keys cannot flush entries that are
	// still hot (the golden observation every trial compares against).
	lru []outputKey
}

// outputKey identifies one computed output: the observation and the
// stimulus *instance*. Keying on the stimulus pointer (not just its
// period) keeps the cache correct when one CUT is asked about different
// stimuli — e.g. the stimulus-optimization study sweeps phase variants
// that all share the Lissajous period. Campaigns share one stimulus
// object, so they still hit the cache.
type outputKey struct {
	out  Output
	stim *wave.Multitone
}

// NewSpiceCUTFromParams designs a Tow-Thomas realization for the given
// behavioural parameters (default 1 nF capacitor) and wraps it in the
// SPICE backend.
func NewSpiceCUTFromParams(p Params) (*SpiceCUT, error) {
	comps, err := DesignTowThomas(p, DefaultCapacitorF)
	if err != nil {
		return nil, err
	}
	if err := comps.Validate(); err != nil {
		return nil, err
	}
	return &SpiceCUT{
		comps: comps,
		ticks: spice.NewTickCache(),
		outs:  map[outputKey]*wave.Sampled{},
	}, nil
}

// Params implements CUT via the Tow-Thomas design equations.
func (s *SpiceCUT) Params() Params {
	p, err := s.comps.Params()
	if err != nil {
		// Construction validated the components; unreachable.
		return Params{}
	}
	return p
}

// Describe implements CUT.
func (s *SpiceCUT) Describe() string {
	p := s.Params()
	return fmt.Sprintf("SPICE Tow-Thomas netlist (R=%.4g RQ=%.4g RG=%.4g C=%.4g; f0=%.4g Hz, Q=%.3g, gain=%.3g)",
		s.comps.R, s.comps.RQ, s.comps.RG, s.comps.C, p.F0, p.Q, p.Gain)
}

// Perturb implements CUT. Every deviation — behavioural or component
// level — lands in the realization, so the perturbed netlist is exactly
// what the deviation describes. The tick cache is inherited.
func (s *SpiceCUT) Perturb(dev Deviation) (CUT, error) {
	p := s.Params()
	_, comps, err := dev.apply(p, s.comps)
	if err != nil {
		return nil, err
	}
	if err := comps.Validate(); err != nil {
		return nil, err
	}
	return &SpiceCUT{
		comps: comps,
		ticks: s.ticks,
		outs:  map[outputKey]*wave.Sampled{},
	}, nil
}

// Output implements CUT by transient simulation of the netlist. A cache
// miss runs OutputScratch on a scratch of its own and keeps a copy of
// the samples, so the template and its buffers are garbage once Output
// returns.
func (s *SpiceCUT) Output(stim *wave.Multitone, out Output) (wave.Waveform, error) {
	key := outputKey{out: out, stim: stim}
	s.mu.Lock()
	defer s.mu.Unlock()
	if w, ok := s.outs[key]; ok {
		s.touch(key)
		return w, nil
	}
	var sc SpiceTrialScratch
	if _, err := s.OutputScratch(stim, out, &sc); err != nil {
		return nil, err
	}
	w, err := wave.NewSampled(sc.samples, stim.Period())
	if err != nil {
		return nil, err
	}
	// Bound the cache: campaigns reuse one stimulus object, so a handful
	// of entries covers every real hit pattern. A stimulus *sweep* (one
	// fresh Multitone per trial against a long-lived golden CUT) would
	// otherwise grow the map without bound and without hits. Evict only
	// the least-recently-used entry: the sweep's one-shot keys churn
	// through that slot while the repeatedly-hit entries stay cached.
	if len(s.outs) >= maxOutputCache {
		delete(s.outs, s.lru[0])
		copy(s.lru, s.lru[1:])
		s.lru = s.lru[:len(s.lru)-1]
	}
	s.outs[key] = w
	s.lru = append(s.lru, key)
	return w, nil
}

// touch moves key to the most-recently-used end of the eviction order.
// Callers hold s.mu.
func (s *SpiceCUT) touch(key outputKey) {
	for i, k := range s.lru {
		if k == key {
			copy(s.lru[i:], s.lru[i+1:])
			s.lru[len(s.lru)-1] = key
			return
		}
	}
}

// maxOutputCache bounds the per-CUT output cache (entries are one
// stepsPerPeriod-sample waveform each).
const maxOutputCache = 8

// settlePeriods is how many stimulus periods of length period run
// before the captured one: until the transient envelope
// exp(−ω0·t/(2Q)) decays below settleFrac, at least 1 and at most
// maxSettlePeriods.
func settlePeriods(p Params, period float64) (int, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	w0 := 2 * math.Pi * p.F0
	tau := 2 * p.Q / w0
	t := -tau * math.Log(settleFrac)
	// Clamp before converting: the span of a huge Q overflows int.
	n := math.Ceil(t / period)
	if !(n < maxSettlePeriods) {
		return maxSettlePeriods, nil
	}
	return max(int(n), 1), nil
}

// rebiasBP turns band-pass node samples into the band-pass observation.
// The node carries −Q·H_BP of the analytic normalization, so it is
// scaled by −1/Q and re-biased to mid-rail — the AC-coupled level shift
// the analytic backend models with SteadyStateBP.
func rebiasBP(samples []float64, q float64) {
	for i := range samples {
		samples[i] = BPRebias - samples[i]/q
	}
}

// RebuildOutput is the oracle Output and OutputScratch are pinned
// against sample for sample: it elaborates the netlist afresh and runs
// the generic spice.TransientSolver over the same settling span and
// step count, bypassing the cache. No binary links it; the biquad,
// testbench and root tests compare the template engine with it.
func (s *SpiceCUT) RebuildOutput(stim *wave.Multitone, out Output) (wave.Waveform, error) {
	T := stim.Period()
	if T <= 0 {
		return nil, fmt.Errorf("biquad: SPICE CUT needs a periodic stimulus")
	}
	p, err := s.comps.Params()
	if err != nil {
		return nil, err
	}
	settle, err := settlePeriods(p, T)
	if err != nil {
		return nil, err
	}
	ckt, nodes, err := s.comps.Netlist()
	if err != nil {
		return nil, err
	}
	vin, ok := ckt.FindElement("VIN").(*spice.VSource)
	if !ok {
		return nil, fmt.Errorf("biquad: netlist has no VIN source")
	}
	vin.SetWaveform(stim)
	node := ckt.Node(nodes.LP)
	if out == OutputBP {
		node = ckt.Node(nodes.BP)
	}
	start := settle * stepsPerPeriod
	samples := make([]float64, stepsPerPeriod)
	err = spice.NewTransientSolver(ckt, false).Run(T*float64(settle+1), start+stepsPerPeriod, func(k int, _ float64, sol *spice.Solution) {
		if k >= start && k < start+stepsPerPeriod {
			samples[k-start] = sol.VoltageAt(node)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("biquad: SPICE CUT transient: %w", err)
	}
	if out == OutputBP {
		rebiasBP(samples, p.Q)
	}
	return wave.NewSampled(samples, T)
}
