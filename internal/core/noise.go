package core

import (
	"math"

	"repro/internal/monitor"
	"repro/internal/ndf"
	"repro/internal/rng"
	"repro/internal/signature"
	"repro/internal/wave"
)

// Certified noise skipping: a noisy capture adds band-limited Gaussian
// noise to both observed signals at every master-clock tick and
// classifies the noisy point. A NoisePlan proves, once per (System,
// CUT, σ), how much noise cannot move each tick's zone code, and a
// period skips the Gaussian transform and the classification wherever
// its draw is provably that small.
//
// # Certificate
//
// The per-tick loop forms x + Gauss(0, eff), then y + Gauss(0, eff).
// On a stream with no spare pending the two calls take one accepted
// polar pair (u, v) with r2 = u² + v² < 1: Norm returns u·f and keeps
// v·f as its spare, f = rng.PolarScale(r2) = √(−2·ln r2 / r2). As |u|
// and |v| are at most √r2, both noise terms are at most
// eff·√(−2·ln r2) in magnitude, a bound that falls as r2 grows.
//
// Tick i's radius ρ is the largest rung of noiseRungs·eff for which
// Bank.ClassifyRect proves the box [x−ρ, x+ρ] × [y−ρ, y+ρ] around the
// clean point (x, y). The box holds the clean point, so the code it
// proves is the clean code, and ClassifyLUT answers that code at every
// point of the box. A pair with eff·√(−2·ln r2) ≤ ρ keeps the noisy
// point in the box, which is r2 ≥ exp(−(ρ/eff)²/2): such a tick takes
// the clean code and needs neither f nor a classification. The boxes
// nest, so the proven rungs are a prefix of the ladder and the search
// may start from the previous tick's rung. A tick with no proven rung
// (off the grid, NaN or ±Inf, a bank without a zone LUT) gets the
// threshold 2 and is never skipped.
//
// Two guards keep the proof airtight in floating point, as the stored
// threshold is exp(−z²/2)·(1+noiseRel) with
// z = (ρ − noiseSlackV)/(eff·(1+noiseRel)):
//
//   - the relative noiseRel = 1e-12 covers the few-ulp rounding of the
//     log, the division, the square root, the products that form the
//     noise and of r2 itself;
//   - the absolute noiseSlackV = 1e-15 V covers the rounding of x + n
//     and of the box ends x ± ρ, each at most half an ulp of a value
//     below 1 V (ClassifyRect proves nothing off [0, 1)).

// noiseRungs are the box half-widths, in units of eff, that NoisePlan
// tries at every tick. A single box gives up most of the skips: at
// σ = 0.005 a 6σ box alone skips 72–76 % of ticks and a 4σ one 78–83 %,
// against 90–94 % for the ladder.
var noiseRungs = [...]float64{0.5, 1, 1.5, 2, 2.5, 3, 3.5, 4, 4.5, 5, 5.5, 6, 7, 8}

const (
	// noiseRel and noiseSlackV are the relative and absolute slack of
	// the skip threshold (see the certificate above).
	noiseRel    = 1e-12
	noiseSlackV = 1e-15
	// noiseBlock is the number of polar pairs a period draws per
	// PolarFill call.
	noiseBlock = 256
)

// polarBlock holds one block of polar pairs.
type polarBlock struct{ u, v, r2 [noiseBlock]float64 }

// NoisePlan is the per-(System, CUT, σ) state of noisy averaged-NDF
// measurements: the clean output on the capture's tick grid, each
// tick's clean zone code and the polar r2 above which measurement
// noise provably keeps that code. Build it with System.NoisePlan once
// per campaign phase; it is read-only afterwards, so a phase's workers
// share one plan.
type NoisePlan struct {
	s     *System
	c     CUT
	sigma float64
	eff   float64
	g     *signature.Signature
	// xs and ys are the clean stimulus and output on the tick grid, and
	// codes their zone codes.
	xs, ys []float64
	codes  []monitor.Code
	// r2min is each tick's skip threshold; nil without noise.
	r2min []float64
}

// NoisePlan builds the noise plan of CUT c at wideband noise spread
// sigma (see Classifier).
func (s *System) NoisePlan(c CUT, sigma float64) (*NoisePlan, error) {
	g, err := s.GoldenSignature()
	if err != nil {
		return nil, err
	}
	p, err := s.tickPlan(c, sigma)
	if err != nil {
		return nil, err
	}
	p.g = g
	return p, nil
}

// tickPlan builds the noise plan without its golden signature, which
// only AveragedNDF reads: the state of one-shot captures.
func (s *System) tickPlan(c CUT, sigma float64) (*NoisePlan, error) {
	out, err := s.output(c)
	if err != nil {
		return nil, err
	}
	ts, xs, err := s.ticks()
	if err != nil {
		return nil, err
	}
	p := &NoisePlan{s: s, c: c, sigma: sigma}
	p.xs, p.ys, p.codes = xs, make([]float64, len(ts)), make([]monitor.Code, len(ts))
	wave.EvalInto(out, ts, p.ys)
	s.Bank.ClassifyBatch(p.xs, p.ys, p.codes)
	if sigma > 0 {
		p.eff = EffectiveNoiseSigma(sigma)
		thr := [len(noiseRungs) + 1]float64{2} // thr[k+1] is rung k's; no rung: never skip
		for k, r := range noiseRungs {
			thr[k+1] = noiseThreshold(r*p.eff, p.eff)
		}
		p.r2min = make([]float64, len(ts))
		k := -1
		for i := range p.r2min {
			k = p.rung(i, k)
			p.r2min[i] = thr[k+1]
		}
	}
	return p, nil
}

// rung returns the largest ladder index whose box ClassifyRect proves
// at tick i (−1 for none), searching from the previous tick's index k.
func (p *NoisePlan) rung(i, k int) int {
	proves := func(k int) bool {
		r, x, y := noiseRungs[k]*p.eff, p.xs[i], p.ys[i]
		c, ok := p.s.Bank.ClassifyRect(x-r, x+r, y-r, y+r)
		return ok && c == p.codes[i]
	}
	if k >= 0 && !proves(k) {
		for k--; k >= 0 && !proves(k); k-- {
		}
		return k
	}
	for k+1 < len(noiseRungs) && proves(k+1) {
		k++
	}
	return k
}

// noiseThreshold is the smallest polar r2 whose noise terms provably
// stay within rho of the clean point at in-band spread eff, or 2 (no
// pair) when rho is not above the slack.
func noiseThreshold(rho, eff float64) float64 {
	z := (rho - noiseSlackV) / (eff * (1 + noiseRel))
	if !(z > 0) {
		return 2
	}
	return math.Exp(-z*z/2) * (1 + noiseRel)
}

// gaussNoise is the noise term Gauss(0, eff) forms from a polar
// coordinate u and its pair's factor f = rng.PolarScale(r2).
func gaussNoise(eff, u, f float64) float64 { return 0 + eff*(u*f) }

// AveragedNDF captures the plan's CUT over several consecutive
// Lissajous periods and averages the per-period NDF against the golden
// signature. Under measurement noise the per-period NDF carries a
// noise-floor mean plus sampling variance; averaging K periods shrinks
// the variance by ~1/√K, which is how a production tester makes small
// deviations (the paper's 1% claim) separable from the floor without
// changing hardware — it simply observes the CUT longer. Each period
// is an independent capture: period k draws its noise from the
// substream noise.Split(k), and the periods run serially and sum in
// period order, so the average is a pure function of the stream. A nil
// noise stream or σ ≤ 0 measures the clean codes.
//
// The scratch is caller-owned — one per campaign worker; a nil scratch
// gets a fresh one. Scratch never affects the result.
func (p *NoisePlan) AveragedNDF(noise *rng.Stream, periods int, sc *TrialScratch) (float64, error) {
	if periods < 1 {
		periods = 1
	}
	if sc == nil {
		sc = NewTrialScratch()
	}
	sum := 0.0
	for k := 0; k < periods; k++ {
		var src *rng.Stream
		if noise != nil {
			noise.SplitInto(&sc.noise, uint64(k))
			src = &sc.noise
		}
		obs, err := p.capture(src, sc, &sc.capture)
		if err != nil {
			return 0, err
		}
		v, err := ndf.NDF(obs, p.g)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum / float64(periods), nil
}

// capture captures one period with noise from src (nil: none), drawing
// its noisy codes into sc. A nil buf returns a caller-owned signature;
// otherwise the signature lives in buf until its next capture.
//
//mclint:hotpath
func (p *NoisePlan) capture(src *rng.Stream, sc *TrialScratch, buf *signature.CaptureBuffer) (*signature.Signature, error) {
	codes := p.codes
	if p.r2min != nil && src != nil {
		codes = sc.capture.Codes(len(p.codes))
		p.noisyCodes(src, sc.polarBlock(), codes)
	}
	return signature.CaptureCanonicalCodes(codes, p.s.Period(), p.s.Capture, buf)
}

// noisyCodes fills codes with one period's noisy tick codes, drawing
// one polar pair per tick from src in blocks: a tick whose pair clears
// its threshold takes the clean code, any other forms the noise as
// Gauss(0, eff) does and classifies the noisy point. PolarFill panics
// if src holds a Norm spare, which the per-tick loop would have used.
//
//mclint:hotpath
func (p *NoisePlan) noisyCodes(src *rng.Stream, b *polarBlock, codes []monitor.Code) {
	bank, eff := p.s.Bank, p.eff
	for lo := 0; lo < len(codes); lo += noiseBlock {
		n := min(noiseBlock, len(codes)-lo)
		src.PolarFill(b.u[:n], b.v[:n], b.r2[:n])
		for j, r2 := range b.r2[:n] {
			i := lo + j
			if r2 >= p.r2min[i] {
				codes[i] = p.codes[i]
				continue
			}
			f := rng.PolarScale(r2)
			codes[i] = bank.ClassifyLUT(p.xs[i]+gaussNoise(eff, b.u[j], f), p.ys[i]+gaussNoise(eff, b.v[j], f))
		}
	}
}
