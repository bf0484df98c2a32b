package biquad

import (
	"fmt"
	"sync"

	"repro/internal/spice"
	"repro/internal/wave"
)

// SpiceConfig tunes the SPICE-transient CUT backend. The zero value uses
// the documented defaults.
type SpiceConfig struct {
	// StepsPerPeriod is the transient resolution of the captured
	// steady-state period (default 2048 — interpolation error orders of
	// magnitude below the capture quantization).
	StepsPerPeriod int
	// SettleFrac is the residual transient fraction the pre-capture
	// settling aims for (default 1e-3).
	SettleFrac float64
	// MaxSettlePeriods caps the settling time (default 16). Catastrophic
	// faults can push Q — and with it the exact settling time — beyond
	// any practical bound; a capped settle mirrors a real tester's
	// finite soak and still exposes the fault to the signature.
	MaxSettlePeriods int
	// Options passes through to the solver. Trapezoidal integration is
	// forced on (second-order accuracy) unless ForceNewton-style
	// debugging options are set by tests.
	Options spice.Options
}

func (c SpiceConfig) withDefaults() SpiceConfig {
	if c.StepsPerPeriod == 0 {
		c.StepsPerPeriod = 2048
	}
	if c.SettleFrac == 0 {
		c.SettleFrac = 1e-3
	}
	if c.MaxSettlePeriods == 0 {
		c.MaxSettlePeriods = 16
	}
	c.Options.Trapezoid = true
	return c
}

// SpiceCUT is the circuit-level backend: the Tow-Thomas realization is
// elaborated into an opamp-RC netlist (Components.Netlist) and the
// observed output is produced by a transient analysis — settle periods
// to decay the start-up transient, then one steady-state period sampled
// into a periodic waveform. Because the netlist is MOSFET-free the
// TransientSolver's linear fast path applies: one LU factorization per
// run, one solve per step.
//
// All CUTs perturbed from one root share a workspace pool, so campaign
// fan-out reuses the solver matrices across trials regardless of which
// worker runs which trial (the buffers are cleared per run, so pool
// reuse can never affect results). The computed output is cached per
// observation: concurrent campaign workers asking for the same CUT's
// output run the transient once.
type SpiceCUT struct {
	comps Components
	cfg   SpiceConfig
	pool  *sync.Pool // of *spice.Workspace, shared across the Perturb family
	// ticks is the family-wide stimulus tick cache for the trial-template
	// path (OutputScratch). Worker scratches are short-lived — campaigns
	// rebuild them per invocation — so the cache lives here, with the
	// family, and each settling class's stimulus grid is evaluated once
	// per process rather than once per worker per campaign.
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

// NewSpiceCUT builds the SPICE backend from an explicit realization.
func NewSpiceCUT(comps Components, cfg SpiceConfig) (*SpiceCUT, error) {
	if err := comps.Validate(); err != nil {
		return nil, err
	}
	return &SpiceCUT{
		comps: comps,
		cfg:   cfg.withDefaults(),
		pool:  &sync.Pool{New: func() any { return spice.NewWorkspace() }},
		ticks: spice.NewTickCache(),
		outs:  map[outputKey]*wave.Sampled{},
	}, nil
}

// NewSpiceCUTFromParams designs a Tow-Thomas realization for the given
// behavioural parameters (default 1 nF capacitor) and wraps it in the
// SPICE backend.
func NewSpiceCUTFromParams(p Params, cfg SpiceConfig) (*SpiceCUT, error) {
	comps, err := DesignTowThomas(p, DefaultCapacitorF)
	if err != nil {
		return nil, err
	}
	return NewSpiceCUT(comps, cfg)
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
// what the deviation describes. The workspace pool is inherited.
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
		cfg:   s.cfg,
		pool:  s.pool,
		ticks: s.ticks,
		outs:  map[outputKey]*wave.Sampled{},
	}, nil
}

// Output implements CUT by transient simulation of the netlist. The
// band-pass node carries −Q·H_BP of the analytic normalization, so it is
// scaled by −1/Q and re-biased to mid-rail — the AC-coupled level shift
// the analytic backend models with SteadyStateBP.
func (s *SpiceCUT) Output(stim *wave.Multitone, out Output) (wave.Waveform, error) {
	T := stim.Period()
	if T <= 0 {
		return nil, fmt.Errorf("biquad: SPICE CUT needs a periodic stimulus")
	}
	key := outputKey{out: out, stim: stim}
	s.mu.Lock()
	defer s.mu.Unlock()
	if w, ok := s.outs[key]; ok {
		s.touch(key)
		return w, nil
	}
	w, err := s.simulate(stim, out, T)
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
// StepsPerPeriod-sample waveform each).
const maxOutputCache = 8

// simulate runs the settling + capture transient for one observation.
func (s *SpiceCUT) simulate(stim *wave.Multitone, out Output, T float64) (*wave.Sampled, error) {
	p, err := s.comps.Params()
	if err != nil {
		return nil, err
	}
	f, err := New(p)
	if err != nil {
		return nil, err
	}
	settle := f.SettlingPeriods(T, s.cfg.SettleFrac)
	if settle < 1 {
		settle = 1
	}
	if settle > s.cfg.MaxSettlePeriods {
		settle = s.cfg.MaxSettlePeriods
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
	nodeName := nodes.LP
	if out == OutputBP {
		nodeName = nodes.BP
	}
	node := ckt.Node(nodeName)

	ws := s.pool.Get().(*spice.Workspace)
	defer s.pool.Put(ws)
	ts := spice.NewTransientSolverWS(ckt, s.cfg.Options, ws)

	n := s.cfg.StepsPerPeriod
	steps := (settle + 1) * n
	start := settle * n
	samples := make([]float64, n)
	err = ts.Run(T*float64(settle+1), steps, func(k int, t float64, sol *spice.Solution) {
		if k >= start && k < start+n {
			samples[k-start] = sol.VoltageAt(node)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("biquad: SPICE CUT transient: %w", err)
	}
	if out == OutputBP {
		for i := range samples {
			samples[i] = BPRebias - samples[i]/p.Q
		}
	}
	return wave.NewSampled(samples, T)
}
