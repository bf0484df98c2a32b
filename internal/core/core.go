// Package core is the public face of the reproduction: it wires the
// paper's full test path — multitone stimulus, Biquad CUT, X-Y zoning
// monitor bank, asynchronous signature capture, and NDF-based decision —
// into one System that examples, tools and benchmarks share.
//
// The circuit under test is pluggable: System is written against the
// CUT backend interface, with two implementations — the closed-form
// analytic Tow-Thomas model (biquad.AnalyticCUT) and the SPICE-transient
// netlist engine (biquad.SpiceCUT) — so every campaign, sweep and CLI
// runs on either.
//
// The zero-configuration entry point is Default(), which reproduces the
// paper's experiment: a {5, 10, 15} kHz multitone around 0.5 V into a
// low-pass Biquad (f0 = 10 kHz, Q = 0.9), observed by the six Table I
// monitors, captured with a 10 MHz clock and 16-bit counter over the
// 200 µs Lissajous period. DefaultSpice() is the same system on the
// SPICE backend.
package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"

	"repro/internal/biquad"
	"repro/internal/campaign"
	"repro/internal/lissajous"
	"repro/internal/monitor"
	"repro/internal/ndf"
	"repro/internal/rng"
	"repro/internal/signature"
	"repro/internal/wave"
)

// CUT is the pluggable circuit-under-test backend every campaign is
// parameterized over; see biquad.CUT for the contract and the two
// shipped implementations (analytic model and SPICE netlist engine).
type CUT = biquad.CUT

// Deviation re-exports the perturbation description campaigns hand to
// CUT.Perturb.
type Deviation = biquad.Deviation

// Observation selects which CUT output the monitor composes with the
// stimulus. The paper observes the low-pass output; the band-pass
// observation is the ref [14]-style generalization this repository adds
// for Q verification.
type Observation int

// Observation modes.
const (
	// ObserveLP composes x = stimulus, y = low-pass output (the paper).
	ObserveLP Observation = iota
	// ObserveBP composes x = stimulus, y = band-pass output re-biased to
	// mid-rail (Q-verification extension).
	ObserveBP
)

// String implements fmt.Stringer.
func (o Observation) String() string {
	if o == ObserveBP {
		return "band-pass"
	}
	return "low-pass"
}

// output maps the observation onto the CUT backend's output selector.
func (o Observation) output() biquad.Output {
	if o == ObserveBP {
		return biquad.OutputBP
	}
	return biquad.OutputLP
}

// System bundles the test setup. Create with Default, DefaultSpice or
// NewSystem and treat as immutable afterwards; methods are safe for
// concurrent use.
type System struct {
	Stimulus *wave.Multitone
	// CUT is the golden circuit-under-test backend; deviated and faulty
	// devices are derived from it with Deviated/Shifted (CUT.Perturb).
	CUT     CUT
	Bank    *monitor.Bank
	Capture signature.CaptureConfig
	// ScanN is the scan resolution for exact signature extraction
	// (samples per period before bisection refinement).
	ScanN int
	// Observe selects the monitored CUT output (default: low-pass).
	// Set before first use; the golden signature is cached per system.
	Observe Observation
	// Scalar is ignored: every signature runs on the one zone-LUT
	// pipeline. The field stays so that code written against the
	// retired engine switch still compiles.
	Scalar bool

	goldenOnce sync.Once
	goldenSig  *signature.Signature
	goldenErr  error

	// Cached sample grids of the (immutable) stimulus: the capture's
	// master-clock tick grid and the exact-extraction scan grid. Built
	// once per system and shared read-only across trials and workers.
	tickGrid gridCache
	scanGrid gridCache
}

// gridCache lazily holds a time grid and the stimulus samples on it.
type gridCache struct {
	once   sync.Once
	ts, xs []float64
	err    error
}

// MaxTicks bounds the master-clock ticks of one capture period. A
// capture holds a time, a stimulus sample, an output sample and a code
// per tick, so the bound keeps a capture within tens of MiB; at 5 GHz
// the paper's 200 µs period takes 10⁶ ticks.
const MaxTicks = 1 << 20

// captureTicks returns the ticks a capture with cfg takes over period
// T, refusing a capture of more than MaxTicks.
func captureTicks(cfg signature.CaptureConfig, T float64) (int, error) {
	n, err := cfg.Ticks(T)
	if err == nil && n > MaxTicks {
		err = fmt.Errorf("core: capture at %g Hz takes %d ticks, over the %d bound", cfg.ClockHz, n, MaxTicks)
	}
	return n, err
}

// ticks returns the master-clock tick grid (t_k = k/ClockHz over one
// period) and the stimulus samples on it, computing both once.
func (s *System) ticks() (ts, xs []float64, err error) {
	g := &s.tickGrid
	g.once.Do(func() {
		n, err := captureTicks(s.Capture, s.Period())
		if err != nil {
			g.err = err
			return
		}
		tick := 1 / s.Capture.ClockHz
		g.ts = make([]float64, n)
		for k := range g.ts {
			g.ts[k] = float64(k) * tick
		}
		g.xs = make([]float64, n)
		wave.EvalInto(s.Stimulus, g.ts, g.xs)
	})
	return g.ts, g.xs, g.err
}

// scans returns the exact-extraction scan grid (t_i = T·i/ScanN,
// i = 0 … ScanN) and the stimulus samples on it, computing both once.
func (s *System) scans() (ts, xs []float64, err error) {
	g := &s.scanGrid
	g.once.Do(func() {
		if s.ScanN < 2 {
			g.err = fmt.Errorf("signature: need at least 2 scan points")
			return
		}
		T := s.Period()
		g.ts = make([]float64, s.ScanN+1)
		for i := range g.ts {
			g.ts[i] = T * float64(i) / float64(s.ScanN)
		}
		g.xs = make([]float64, len(g.ts))
		wave.EvalInto(s.Stimulus, g.ts, g.xs)
	})
	return g.ts, g.xs, g.err
}

// TrialScratch bundles the per-worker reusable buffers of the signature
// engine: the capture scratch (raw entries, canonical entries, per-tick
// or per-scan-point codes) and a noisy period's random state. One
// scratch per campaign worker; not safe for concurrent use.
type TrialScratch struct {
	capture signature.CaptureBuffer
	// noise holds the current period's noise substream.
	noise rng.Stream
	// polar holds a noise plan's block of polar pairs, allocated on the
	// first noisy period.
	polar *polarBlock
	// spice carries the SPICE backend's per-worker trial state: a
	// compiled circuit template plus the transient sample buffer, so a
	// worker's trials skip netlist elaboration and solver setup entirely.
	// Backends without a template path never touch it.
	spice biquad.SpiceTrialScratch
}

// NewTrialScratch returns an empty scratch; buffers grow on first use.
func NewTrialScratch() *TrialScratch { return &TrialScratch{} }

// polarBlock returns the scratch's polar-pair block, allocating it once.
func (sc *TrialScratch) polarBlock() *polarBlock {
	if sc.polar == nil {
		sc.polar = new(polarBlock)
	}
	return sc.polar
}

// goldenParams is the paper's reference CUT.
var goldenParams = biquad.Params{F0: 10e3, Q: 0.9, Gain: 1}

// defaultStimulus builds the paper's multitone.
func defaultStimulus() *wave.Multitone {
	stim, err := wave.NewMultitone(0.5, 5e3, []int{1, 2, 3},
		[]float64{0.22, 0.13, 0.08}, []float64{0, 0, 0})
	if err != nil {
		panic(err) // static construction cannot fail
	}
	return stim
}

// Default returns the paper's reference system on the analytic backend.
func Default() *System {
	cut, err := biquad.NewAnalyticCUT(goldenParams)
	if err != nil {
		panic(err) // static construction cannot fail
	}
	return &System{
		Stimulus: defaultStimulus(),
		CUT:      cut,
		Bank:     monitor.NewAnalyticTableI(),
		Capture:  signature.DefaultCapture(),
		ScanN:    8192,
	}
}

// DefaultSpice returns the paper's reference system with the golden CUT
// realized as a Tow-Thomas netlist simulated by the SPICE engine.
func DefaultSpice() (*System, error) {
	cut, err := biquad.NewSpiceCUTFromParams(goldenParams)
	if err != nil {
		return nil, err
	}
	s := Default()
	s.CUT = cut
	return s, nil
}

// Backends lists the registered CUT backend names, in the order the
// -backend flags and campaign specs document them. The empty spec value
// resolves to the first entry.
func Backends() []string { return []string{"analytic", "spice"} }

// SystemForBackend returns the paper's reference system on the named
// CUT backend ("analytic" or "spice") — the shared resolver behind the
// CLIs' -backend flags and the campaign registry's spec field.
func SystemForBackend(name string) (*System, error) {
	switch name {
	case "analytic":
		return Default(), nil
	case "spice":
		return DefaultSpice()
	default:
		return nil, fmt.Errorf("core: unknown CUT backend %q (want %s)", name, strings.Join(Backends(), " or "))
	}
}

// NewSystem builds a custom system, validating the pieces.
func NewSystem(stim *wave.Multitone, cut CUT, bank *monitor.Bank, cap signature.CaptureConfig) (*System, error) {
	if stim == nil || stim.Period() <= 0 {
		return nil, fmt.Errorf("core: stimulus must be a periodic multitone")
	}
	if cut == nil {
		return nil, fmt.Errorf("core: CUT backend must not be nil")
	}
	if err := cut.Params().Validate(); err != nil {
		return nil, err
	}
	if bank == nil || bank.Size() == 0 {
		return nil, fmt.Errorf("core: monitor bank must not be empty")
	}
	if _, err := captureTicks(cap, stim.Period()); err != nil {
		return nil, err
	}
	return &System{Stimulus: stim, CUT: cut, Bank: bank, Capture: cap, ScanN: 8192}, nil
}

// Golden returns the behavioural parameters of the golden CUT.
func (s *System) Golden() biquad.Params { return s.CUT.Params() }

// Deviated returns the golden CUT with the given deviation applied.
func (s *System) Deviated(d Deviation) (CUT, error) { return s.CUT.Perturb(d) }

// Shifted returns the golden CUT with a fractional f0 shift — the
// deviation class the paper sweeps.
func (s *System) Shifted(shift float64) (CUT, error) {
	return s.CUT.Perturb(Deviation{F0Shift: shift})
}

// Period returns the Lissajous period T.
func (s *System) Period() float64 { return s.Stimulus.Period() }

// output resolves the observed output waveform of a CUT.
func (s *System) output(c CUT) (wave.Waveform, error) {
	return c.Output(s.Stimulus, s.Observe.output())
}

// trialOutputter is the optional CUT capability behind the batched trial
// engine: backends that can serve an observation through a per-worker
// trial scratch (the SPICE backend's compiled circuit template) run at
// template speed inside campaign loops, with bit-identical samples.
type trialOutputter interface {
	OutputScratch(stim *wave.Multitone, out biquad.Output, sc *biquad.SpiceTrialScratch) (wave.Waveform, error)
}

// outputScratch is output with an optional per-worker trial scratch.
// The returned waveform may alias the scratch's buffers and is valid
// only until the scratch's next trial — exactly the lifetime the
// signature paths need (they consume the waveform before returning).
func (s *System) outputScratch(c CUT, sc *TrialScratch) (wave.Waveform, error) {
	if sc != nil {
		if to, ok := c.(trialOutputter); ok {
			return to.OutputScratch(s.Stimulus, s.Observe.output(), &sc.spice)
		}
	}
	return s.output(c)
}

// Lissajous returns the X-Y composition for a CUT (x = stimulus,
// y = observed output).
func (s *System) Lissajous(c CUT) (lissajous.Curve, error) {
	out, err := s.output(c)
	if err != nil {
		return lissajous.Curve{}, err
	}
	return lissajous.New(s.Stimulus, out)
}

// Band-limiting of the measurement noise. The paper's experiment adds
// "high frequency white noise ... with a 3σ spread of 0.015 V" to the
// signals; noise above the monitor's input bandwidth is averaged away by
// the differential pair, so the capture only sees the in-band fraction.
// With the noise spread specified over NoiseBandHz and the monitor
// front-end passing MonitorBandHz, the effective per-sample sigma is
// sigma·√(MonitorBandHz/NoiseBandHz). The README's noise claim records
// this substitution; the noise_detect example reproduces the paper's
// "deviations as low as 1% are detected" with these defaults.
const (
	// NoiseBandHz is the bandwidth over which the injected noise's sigma
	// is specified (it is "high frequency" relative to the monitor).
	NoiseBandHz = 100e6
	// MonitorBandHz is the monitor front-end bandwidth.
	MonitorBandHz = 10e6
)

// EffectiveNoiseSigma returns the in-band noise the capture sees for a
// given wideband noise spread.
func EffectiveNoiseSigma(sigma float64) float64 {
	return sigma * math.Sqrt(MonitorBandHz/NoiseBandHz)
}

// Classifier returns the instantaneous zone-code function for a CUT.
// A non-nil noise stream adds band-limited Gaussian measurement noise to
// both observed signals at every evaluation; sigma is the wideband spread
// (the paper's 3σ = 0.015 V experiment uses sigma = 0.005) and the
// monitor sees EffectiveNoiseSigma(sigma) of it. Fed to signature.Exact
// or signature.CaptureCanonical, it is the tests' per-point oracle.
func (s *System) Classifier(c CUT, sigma float64, noise *rng.Stream) (signature.Classifier, error) {
	out, err := s.output(c)
	if err != nil {
		return nil, err
	}
	if sigma <= 0 || noise == nil {
		return func(t float64) monitor.Code {
			return s.Bank.Classify(s.Stimulus.Eval(t), out.Eval(t))
		}, nil
	}
	eff := EffectiveNoiseSigma(sigma)
	return func(t float64) monitor.Code {
		x := s.Stimulus.Eval(t) + noise.Gauss(0, eff)
		y := out.Eval(t) + noise.Gauss(0, eff)
		return s.Bank.Classify(x, y)
	}, nil
}

// ExactSignature computes the ideal (unquantized, noiseless) signature
// of a CUT.
func (s *System) ExactSignature(c CUT) (*signature.Signature, error) {
	return s.exactSignature(c, nil)
}

// exactSignature is ExactSignature with optional per-worker scratch. It
// classifies the scan grid with scanCodes and bisects the bracketed
// transitions with Bank.ClassifyLUT. Both answer exactly as
// Bank.Classify does, so the result is bit-identical to signature.Exact
// on Classifier(c, 0, nil).
func (s *System) exactSignature(c CUT, sc *TrialScratch) (*signature.Signature, error) {
	out, err := s.outputScratch(c, sc)
	if err != nil {
		return nil, err
	}
	cls := func(t float64) monitor.Code {
		return s.Bank.ClassifyLUT(s.Stimulus.Eval(t), out.Eval(t))
	}
	if sc == nil {
		sc = NewTrialScratch()
	}
	codes, err := s.scanCodes(out, sc)
	if err != nil {
		return nil, err
	}
	return signature.ExactFromCodes(codes, cls, s.Period(), 0)
}

// scanCodes classifies out on the scan grid into sc's code buffer. An
// exact multitone goes through certified interpolation bounds
// (bandCodes), which on the paper's system evaluate it at about one scan
// point in eleven and prove most blocks of 32 points with one zone-LUT
// query. Any other output, SPICE's sampled ones, goes through block
// proofs on its sample hull (blockCodes).
func (s *System) scanCodes(out wave.Waveform, sc *TrialScratch) ([]monitor.Code, error) {
	ts, xs, err := s.scans()
	if err != nil {
		return nil, err
	}
	codes := sc.capture.Codes(len(ts))
	if m, ok := out.(*wave.Multitone); ok {
		bandCodes(s.Bank, s.Stimulus, m, ts, xs, codes)
		return codes, nil
	}
	blockCodes(s.Bank, out, ts, xs, codes)
	return codes, nil
}

// blockCodes fills codes[i] with the code ClassifyBatch gives
// (xs[i], out(ts[i])) and returns how many points it evaluated. It
// walks the scan in blocks of bandBlock points. For a *wave.Sampled
// output, a block's points lie in the box of their exact x range and the
// hull of the samples Eval interpolates between over the block's times,
// widened by bandSlack for Eval's rounding; when ClassifyRect proves
// that box, every point of the block gets its code unevaluated. Any
// other point is evaluated and classified with ClassifyLUT, in scan
// order. A block whose times wrap past the output's period, whose hull
// is not finite or off the [0,1)² grid, or whose output is of another
// type, is evaluated throughout.
//
//mclint:hotpath
func blockCodes(bank *monitor.Bank, out wave.Waveform, ts, xs []float64, codes []monitor.Code) (evals int) {
	smp, _ := out.(*wave.Sampled)
	for a := 0; a < len(ts); a += bandBlock {
		b := min(a+bandBlock, len(ts))
		if smp != nil {
			if ylo, yhi, ok := smp.Hull(ts[a], ts[b-1]); ok {
				xlo, xhi := xs[a], xs[a]
				for _, x := range xs[a+1 : b] {
					xlo, xhi = min(xlo, x), max(xhi, x)
				}
				if c, ok := bank.ClassifyRect(xlo, xhi, ylo-bandSlack, yhi+bandSlack); ok {
					for i := a; i < b; i++ {
						codes[i] = c
					}
					continue
				}
			}
		}
		for i := a; i < b; i++ {
			codes[i] = bank.ClassifyLUT(xs[i], out.Eval(ts[i]))
		}
		evals += b - a
	}
	return evals
}

// The band scan evaluates the output at every bandBlock-th scan point.
// A waveform with second derivative bounded by M2 lies, at a point t
// between block ends t_a and t_b, within M2·(t−t_a)(t_b−t)/2 of the line
// through its values there: the interpolation remainder. bandSlack
// covers rounding on top.
const (
	// bandBlock: on the paper's 8192-point scan a 32-step block's worst
	// half-width is 79 µV, a third of a fine LUT cell (1/4096 V); 16, 32
	// and 64 measured alike.
	bandBlock = 32
	// bandSlack (V) is five orders of magnitude above the ~1e-14 V
	// rounding of Multitone.Eval and of the band on voltage-scale tones,
	// and seven above the few-ulp rounding of Sampled.Eval against its
	// sample hull on the [0,1) grid.
	bandSlack = 1e-9
)

// bandCodes fills codes[i] with the code ClassifyBatch gives
// (xs[i], out(ts[i])), where xs holds stim on ts, and returns how many
// points it evaluated: the block ends, and every point whose band
// ClassifyRect cannot prove. A block's interior lies in its bounding
// box: x within M2·h²/8 + bandSlack of the block ends' x range, M2 being
// stim's curvature bound and h = t_b − t_a, and y likewise with out's.
// When ClassifyRect proves the box, every interior point gets its code.
// Otherwise each interior point gets the code ClassifyRect proves for
// the vertical segment x × (line ± M2·(t−t_a)(t_b−t)/2 + bandSlack), or
// is evaluated. Nothing is proven when a curvature bound is NaN or
// infinite or the bank has no zone LUT; then every point is evaluated.
//
//mclint:hotpath
func bandCodes(bank *monitor.Bank, stim, out *wave.Multitone, ts, xs []float64, codes []monitor.Code) (evals int) {
	m2x, m2y := stim.CurvatureBound(), out.CurvatureBound()
	last := len(ts) - 1
	ya := out.Eval(ts[0])
	codes[0] = bank.ClassifyLUT(xs[0], ya)
	evals = 1
	for a := 0; a < last; a += bandBlock {
		b := min(a+bandBlock, last)
		ta, tb := ts[a], ts[b]
		yb := out.Eval(tb)
		codes[b] = bank.ClassifyLUT(xs[b], yb)
		evals++
		h2 := (tb - ta) * (tb - ta) / 8
		wx, wy := m2x*h2+bandSlack, m2y*h2+bandSlack
		if c, ok := bank.ClassifyRect(min(xs[a], xs[b])-wx, max(xs[a], xs[b])+wx, min(ya, yb)-wy, max(ya, yb)+wy); ok {
			for i := a + 1; i < b; i++ {
				codes[i] = c
			}
			ya = yb
			continue
		}
		slope := (yb - ya) / (tb - ta)
		for i := a + 1; i < b; i++ {
			t := ts[i]
			y := ya + slope*(t-ta)
			w := m2y*(t-ta)*(tb-t)/2 + bandSlack
			c, ok := bank.ClassifyRect(xs[i], xs[i], y-w, y+w)
			if !ok {
				c = bank.ClassifyLUT(xs[i], out.Eval(t))
				evals++
			}
			codes[i] = c
		}
		ya = yb
	}
	return evals
}

// CapturedSignature runs the Fig. 5 clocked capture for a CUT,
// optionally with measurement noise, as one period of the CUT's noise
// plan. The caller owns the result. The noise takes one polar pair per
// tick, the pairs two Gauss calls per tick would draw, so noise must
// hold no Norm spare: a stream from rng.New, Split or NewSub holds none,
// and PolarFill panics on one that does.
func (s *System) CapturedSignature(c CUT, sigma float64, noise *rng.Stream) (*signature.Signature, error) {
	p, err := s.tickPlan(c, sigma)
	if err != nil {
		return nil, err
	}
	return p.capture(noise, NewTrialScratch(), nil)
}

// GoldenSignature returns the (cached) exact signature of the golden CUT.
func (s *System) GoldenSignature() (*signature.Signature, error) {
	s.goldenOnce.Do(func() {
		s.goldenSig, s.goldenErr = s.ExactSignature(s.CUT)
	})
	return s.goldenSig, s.goldenErr
}

// NDFOf returns the exact NDF of an arbitrary CUT against the golden
// signature — the general entry point the Q-verification and
// component-fault experiments use.
func (s *System) NDFOf(c CUT) (float64, error) {
	return s.NDFOfScratch(c, nil)
}

// NDFOfScratch is NDFOf with per-worker scratch for campaign fan-out
// (fault tables, yield populations); a nil scratch degrades to one-shot
// buffers. Scratch never affects the result.
func (s *System) NDFOfScratch(c CUT, sc *TrialScratch) (float64, error) {
	g, err := s.GoldenSignature()
	if err != nil {
		return 0, err
	}
	obs, err := s.exactSignature(c, sc)
	if err != nil {
		return 0, err
	}
	return ndf.NDF(obs, g)
}

// NDFOfDeviation perturbs the golden CUT and returns its exact NDF.
func (s *System) NDFOfDeviation(d Deviation) (float64, error) {
	c, err := s.Deviated(d)
	if err != nil {
		return 0, err
	}
	return s.NDFOf(c)
}

// NDFOfShift returns the exact NDF of a CUT whose natural frequency is
// shifted by the given fraction — one point of the Fig. 8 curve.
func (s *System) NDFOfShift(shift float64) (float64, error) {
	return s.NDFOfDeviation(Deviation{F0Shift: shift})
}

// SweepF0Ctx evaluates NDFOfShift over a deviation grid (the Fig. 8
// sweep) under an explicit context and campaign engine (worker bound,
// progress); the output order matches shifts. Cancelling ctx aborts the
// sweep within one trial's latency; the result is identical at any
// worker count.
func (s *System) SweepF0Ctx(ctx context.Context, shifts []float64, eng campaign.Engine) ([]float64, error) {
	// The golden signature must be materialized before fan-out so the
	// sync.Once does not serialize the workers.
	if _, err := s.GoldenSignature(); err != nil {
		return nil, err
	}
	return campaign.Collect(ctx, eng, len(shifts),
		NewTrialScratch,
		func(i int, sc *TrialScratch) (float64, error) {
			c, err := s.Shifted(shifts[i])
			if err != nil {
				return 0, fmt.Errorf("core: sweep point %g: %w", shifts[i], err)
			}
			v, err := s.NDFOfScratch(c, sc)
			if err != nil {
				return 0, fmt.Errorf("core: sweep point %g: %w", shifts[i], err)
			}
			return v, nil
		})
}

// TestResult is the outcome of one production test.
type TestResult struct {
	NDF  float64
	Pass bool
}

// Test captures a CUT (with optional noise) and applies the decision.
func (s *System) Test(c CUT, dec ndf.Decision, sigma float64, noise *rng.Stream) (TestResult, error) {
	g, err := s.GoldenSignature()
	if err != nil {
		return TestResult{}, err
	}
	obs, err := s.CapturedSignature(c, sigma, noise)
	if err != nil {
		return TestResult{}, err
	}
	v, err := ndf.NDF(obs, g)
	if err != nil {
		return TestResult{}, err
	}
	return TestResult{NDF: v, Pass: dec.Pass(v)}, nil
}

// CalibrateFromToleranceCtx sweeps the deviation grid and places the
// acceptance threshold at the NDF of the tolerance edges — the Fig. 8
// PASS/FAIL band construction. The sweep runs on eng under ctx: it is
// cancellable and bit-identical at any worker count.
func (s *System) CalibrateFromToleranceCtx(ctx context.Context, tol float64, gridPoints int, eng campaign.Engine) (ndf.Decision, error) {
	if gridPoints < 3 {
		gridPoints = 9
	}
	devs := make([]float64, gridPoints)
	for i := range devs {
		devs[i] = -tol*2 + 4*tol*float64(i)/float64(gridPoints-1)
	}
	ndfs, err := s.SweepF0Ctx(ctx, devs, eng)
	if err != nil {
		return ndf.Decision{}, err
	}
	return ndf.CalibrateThreshold(devs, ndfs, tol)
}
