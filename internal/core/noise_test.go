package core

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/monitor"
	"repro/internal/ndf"
	"repro/internal/rng"
	"repro/internal/signature"
	"repro/internal/wave"
)

// noisePlan builds s's noise plan of the golden CUT deviated by d.
func noisePlan(t testing.TB, s *System, d Deviation, sigma float64) *NoisePlan {
	t.Helper()
	c, err := s.Deviated(d)
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.NoisePlan(c, sigma)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// perTickAveragedNDF is the per-tick loop NoisePlan replaces, kept as
// its oracle: the output through the per-worker trial path, then for
// every period and every tick x + Gauss(0, eff) and y + Gauss(0, eff)
// drawn from the period's substream, a batch classification of the
// noisy points, the capture and the NDF. It returns the average and
// each period's tick codes.
func perTickAveragedNDF(s *System, c CUT, sigma float64, noise *rng.Stream, periods int) (float64, [][]monitor.Code, error) {
	if periods < 1 {
		periods = 1
	}
	g, err := s.GoldenSignature()
	if err != nil {
		return 0, nil, err
	}
	out, err := s.outputScratch(c, NewTrialScratch())
	if err != nil {
		return 0, nil, err
	}
	ts, xs, err := s.ticks()
	if err != nil {
		return 0, nil, err
	}
	ybase := make([]float64, len(ts))
	wave.EvalInto(out, ts, ybase)
	eff := EffectiveNoiseSigma(sigma)
	sum, all := 0.0, make([][]monitor.Code, periods)
	for k := range all {
		var src *rng.Stream
		if noise != nil {
			src = noise.Split(uint64(k))
		}
		xv, yv := xs, ybase
		if sigma > 0 && src != nil {
			xv, yv = make([]float64, len(ts)), make([]float64, len(ts))
			for i := range ts {
				xv[i] = xs[i] + src.Gauss(0, eff)
				yv[i] = ybase[i] + src.Gauss(0, eff)
			}
		}
		all[k] = make([]monitor.Code, len(ts))
		s.Bank.ClassifyBatch(xv, yv, all[k])
		obs, err := signature.CaptureCanonicalCodes(all[k], s.Period(), s.Capture, nil)
		if err != nil {
			return 0, nil, err
		}
		v, err := ndf.NDF(obs, g)
		if err != nil {
			return 0, nil, err
		}
		sum += v
	}
	return sum / float64(periods), all, nil
}

// matchPerTick checks p's averaged NDF bits and every period's tick
// codes against the per-tick oracle on noise streams seed0 … seed0+n−1.
func matchPerTick(t *testing.T, name string, p *NoisePlan, seed0 uint64, n, periods int) {
	t.Helper()
	sc := NewTrialScratch()
	for j := 0; j < n; j++ {
		seed := seed0 + uint64(j)
		want, wantCodes, err := perTickAveragedNDF(p.s, p.c, p.sigma, rng.New(seed), periods)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.AveragedNDF(rng.New(seed), periods, sc)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s seed %d: plan NDF %v, per-tick %v", name, seed, got, want)
		}
		noise := rng.New(seed)
		for k, wc := range wantCodes {
			codes, r2min := p.codes, make([]float64, len(p.codes))
			if p.r2min != nil {
				codes, r2min = make([]monitor.Code, len(p.codes)), p.r2min
				p.noisyCodes(noise.Split(uint64(k)), new(polarBlock), codes)
			}
			for i := range wc {
				if codes[i] != wc[i] {
					t.Fatalf("%s seed %d period %d tick %d: plan code %v, per-tick %v (r2min %v)",
						name, seed, k, i, codes[i], wc[i], r2min[i])
				}
			}
		}
	}
}

// expectedSkip is the share of p's ticks a period is expected to skip:
// an accepted polar r2 is uniform on (0, 1), so tick i skips with
// probability 1 − r2min[i].
func expectedSkip(p *NoisePlan) float64 {
	sum := 0.0
	for _, r := range p.r2min {
		sum += max(0, 1-r)
	}
	return sum / float64(len(p.r2min))
}

// TestNoisePlanMatchesPerTickLoop: on the paper's system, the plan's
// per-period codes and averaged NDF bits equal the per-tick loop's over
// noise spreads from far below a LUT cell to far above the zones, f0
// shifts from 0 to +20 %, and 20 noise seeds of 3 periods each.
func TestNoisePlanMatchesPerTickLoop(t *testing.T) {
	sys := Default()
	for _, sigma := range []float64{1e-5, 1e-3, 0.005, 0.02, 0.1, 0.5} {
		for _, shift := range []float64{0, 0.005, 0.01, -0.02, 0.05, 0.20} {
			p := noisePlan(t, sys, Deviation{F0Shift: shift}, sigma)
			name := fmt.Sprintf("sigma %g shift %+g", sigma, shift)
			matchPerTick(t, name, p, 1, 20, 3)
			t.Logf("%s: expected skip share %.3f", name, expectedSkip(p))
		}
	}
}

// TestNoisePlanMatchesPerTickElsewhere runs the oracle off the paper's
// operating point: the band-pass observation, yield-style component
// dies, the SPICE backend (the plan takes its output once through
// Output, the oracle through the per-worker template), a bank without
// a zone LUT (which must never skip), no noise and a scalar system.
func TestNoisePlanMatchesPerTickElsewhere(t *testing.T) {
	bp := Default()
	bp.Observe = ObserveBP
	for _, sigma := range []float64{0.005, 0.02, 0.1} {
		for _, shift := range []float64{0, 0.01, -0.02} {
			p := noisePlan(t, bp, Deviation{F0Shift: shift}, sigma)
			matchPerTick(t, fmt.Sprintf("band-pass sigma %g shift %+g", sigma, shift), p, 100, 10, 3)
		}
	}
	lp := Default()
	for i, d := range componentDies(16, 0.02) {
		for _, sigma := range []float64{0.005, 0.02} {
			matchPerTick(t, fmt.Sprintf("die %d sigma %g", i, sigma), noisePlan(t, lp, d, sigma), 200, 3, 3)
		}
	}
	spice, err := DefaultSpice()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range append(componentDies(2, 0.02), Deviation{}, Deviation{F0Shift: 0.01}) {
		for _, sigma := range []float64{0.005, 0.02} {
			matchPerTick(t, fmt.Sprintf("spice %+v sigma %g", d, sigma), noisePlan(t, spice, d, sigma), 300, 3, 3)
		}
	}
	stuck, err := Default().Bank.WithStuckMonitor(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	noLUT := Default()
	noLUT.Bank = stuck
	p := noisePlan(t, noLUT, Deviation{F0Shift: 0.01}, 0.005)
	for i, r := range p.r2min {
		if r != 2 {
			t.Fatalf("bank without a LUT: tick %d has threshold %v, want 2 (never skip)", i, r)
		}
	}
	matchPerTick(t, "bank without a LUT", p, 400, 5, 2)
	for _, sigma := range []float64{0, -1} {
		p := noisePlan(t, lp, Deviation{F0Shift: 0.01}, sigma)
		if p.r2min != nil {
			t.Fatalf("sigma %g: plan holds thresholds", sigma)
		}
		matchPerTick(t, fmt.Sprintf("sigma %g", sigma), p, 500, 2, 2)
	}
	p = noisePlan(t, lp, Deviation{F0Shift: 0.01}, 0.005)
	want, _, err := perTickAveragedNDF(lp, p.c, 0.005, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := p.AveragedNDF(nil, 3, nil); err != nil || got != want {
		t.Fatalf("nil noise stream: plan %v (%v), per-tick %v", got, err, want)
	}
	ps := noisePlan(t, scalarTwin(), Deviation{F0Shift: 0.01}, 0.005)
	for seed := uint64(600); seed < 603; seed++ {
		got, err := ps.AveragedNDF(rng.New(seed), 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := p.AveragedNDF(rng.New(seed), 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("seed %d: scalar plan %v, batched %v", seed, got, want)
		}
	}
}

// TestNoiseThresholdKeepsNoiseInBox checks the certificate's arithmetic
// at its edge: for every rung and in-band spreads from 1e-7 to 1 V, a
// pair at r2 = r2min or a few ulps either side, with |u| = √r2 (the
// largest |u| the pair allows), forms through the draw path's own
// expressions a noise term within ρ less the box-rounding slack, and a
// noisy coordinate inside the box ends ClassifyRect was given.
func TestNoiseThresholdKeepsNoiseInBox(t *testing.T) {
	xs := []float64{0, 1.0 / 3, 0.5, 0.7, 1 - 0x1p-20}
	for e := -7.0; e <= 0; e += 0.125 {
		eff := math.Pow(10, e)
		for _, rung := range noiseRungs {
			rho := rung * eff
			r2min := noiseThreshold(rho, eff)
			if !(r2min > 0 && r2min < 1) {
				t.Fatalf("eff %g rung %g: threshold %v skips no pair", eff, rung, r2min)
			}
			r2 := r2min
			for i := 0; i < 4; i++ {
				r2 = math.Nextafter(r2, 0)
			}
			for i := 0; i < 9; i++ {
				f := rng.PolarScale(r2)
				for _, u := range []float64{math.Sqrt(r2), -math.Sqrt(r2)} {
					n := gaussNoise(eff, u, f)
					if math.Abs(n) > rho-noiseSlackV {
						t.Fatalf("eff %g rung %g r2 %v (%+d ulp): |noise| %v exceeds ρ − slack %v",
							eff, rung, r2, i-4, math.Abs(n), rho-noiseSlackV)
					}
					for _, x := range xs {
						if xn := x + n; !(xn >= x-rho && xn <= x+rho) {
							t.Fatalf("eff %g rung %g r2 %v: x %v + noise %v = %v leaves [%v, %v]",
								eff, rung, r2, x, n, xn, x-rho, x+rho)
						}
					}
				}
				r2 = math.Nextafter(r2, 1)
			}
		}
	}
	for _, c := range []struct{ rho, eff float64 }{{0, 1e-3}, {noiseSlackV, 1e-3}, {0, 0}, {math.Inf(1), math.Inf(1)}, {math.NaN(), 1}} {
		if r := noiseThreshold(c.rho, c.eff); r != 2 && !(r >= 1) {
			t.Fatalf("threshold(ρ %v, eff %v) = %v would skip", c.rho, c.eff, r)
		}
	}
}

// TestNoisePlanSkipShare: at the paper's σ = 0.005 the ladder proves
// enough that at least 85 % of ticks are expected to skip the Gaussian
// transform and the classification, on the golden CUT and at +1 %.
func TestNoisePlanSkipShare(t *testing.T) {
	sys := Default()
	for _, shift := range []float64{0, 0.01} {
		for _, sigma := range []float64{0.005, 0.02, 0.1} {
			share := expectedSkip(noisePlan(t, sys, Deviation{F0Shift: shift}, sigma))
			t.Logf("shift %+g sigma %g: expected skip share %.3f", shift, sigma, share)
			if sigma == 0.005 && share < 0.85 {
				t.Fatalf("shift %+g sigma 0.005: expected skip share %.3f, want at least 0.85", shift, share)
			}
		}
	}
}

// fuzzSystems holds one paper system per observation for FuzzNoisePlan,
// built once per fuzz process (a fresh one certifies its zone LUT).
var fuzzSystems = sync.OnceValue(func() [2]*System {
	lp, bp := Default(), Default()
	bp.Observe = ObserveBP
	return [2]*System{lp, bp}
})

// FuzzNoisePlan: for a fuzzed f0 shift, noise spread (1e-6 to 1 V),
// seed, period count (1–5) and observation, the plan's averaged NDF and
// every period's codes equal the per-tick oracle's, bit for bit.
func FuzzNoisePlan(f *testing.F) {
	f.Add(0.01, 0.005, uint64(1), uint8(5), false)
	f.Add(0.0, 0.02, uint64(7), uint8(3), true)
	f.Add(-0.02, 1e-6, uint64(11), uint8(1), false)
	f.Add(0.2, 1.0, uint64(13), uint8(2), true)
	f.Add(0.05, 0.1, uint64(17), uint8(4), false)
	f.Fuzz(func(t *testing.T, shift, sigma float64, seed uint64, periods uint8, bandPass bool) {
		if math.IsNaN(shift) || math.IsNaN(sigma) || math.IsInf(sigma, 0) {
			t.Skip()
		}
		shift = math.Mod(shift, 0.5)
		sigma = math.Min(math.Max(math.Abs(sigma), 1e-6), 1)
		sys := fuzzSystems()[0]
		if bandPass {
			sys = fuzzSystems()[1]
		}
		c, err := sys.Shifted(shift)
		if err != nil {
			t.Skip()
		}
		p, err := sys.NoisePlan(c, sigma)
		if err != nil {
			t.Fatal(err)
		}
		matchPerTick(t, fmt.Sprintf("shift %g sigma %g bp %v", shift, sigma, bandPass), p, seed, 1, 1+int(periods%5))
	})
}
