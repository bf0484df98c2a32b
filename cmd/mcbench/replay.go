package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/biquad"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/ndf"
	"repro/internal/rng"
	"repro/internal/signature"
	"repro/internal/stat"
	"repro/internal/testbench"
	"repro/internal/wave"
)

// The traced replays recompute a campaign through the layers' public
// functions, one span around every call, and must land on the payload
// the untraced testbench.Run produces bit for bit. They mirror the
// order of operations of core's batched engine (scan or tick grid,
// batch output evaluation, zone-LUT classification, exact refinement
// or canonical capture, NDF) and of the testbench campaign drivers
// (per-trial streams, reductions, Wilson intervals). The replay is the
// benchmark's own copy of that order: when the engine changes, the
// bit-identity check fails here first.

// replayScratch is one replay worker's reusable buffers.
type replayScratch struct {
	spice   biquad.SpiceTrialScratch
	capture signature.CaptureBuffer
	ys      []float64
	xv, yv  []float64
	codes   []monitor.Code
}

// grow returns buf resized to n, reallocating only when it is too small.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// trialOutputter is the SPICE backend's scratch-served output, the call
// core routes every SPICE trial through.
type trialOutputter interface {
	OutputScratch(stim *wave.Multitone, out biquad.Output, sc *biquad.SpiceTrialScratch) (wave.Waveform, error)
}

// replayCounts are the work counts of a replay.
type replayCounts struct {
	trials  atomic.Int64
	points  atomic.Int64 // points classified by Bank.ClassifyBatch
	refines atomic.Int64 // exact-classifier calls made by bisection refinement
	chunks  atomic.Int64 // reduction chunks folded
}

// Meter implementation: the replay counts chunks through the engine's
// own observation hook.
func (c *replayCounts) ReduceStart(workers, trials int) {}
func (c *replayCounts) ChunkStart(chunk int)            { c.chunks.Add(1) }
func (c *replayCounts) ChunkDone(chunk, trials int)     {}

// output calls the observed CUT output the way core does: through the
// worker's SPICE template when the backend has one, else CUT.Output.
func output(sys *core.System, cut core.CUT, sc *replayScratch) (wave.Waveform, error) {
	if to, ok := cut.(trialOutputter); ok {
		return to.OutputScratch(sys.Stimulus, biquad.OutputLP, &sc.spice)
	}
	return cut.Output(sys.Stimulus, biquad.OutputLP)
}

// checkReplayable rejects systems whose configuration the replay does
// not mirror.
func checkReplayable(sys *core.System) error {
	if sys.Observe != core.ObserveLP || sys.Scalar {
		return fmt.Errorf("replay: needs the batched engine observing the low-pass output")
	}
	return nil
}

// yieldVerdict is one die's scored outcome.
type yieldVerdict struct{ good, pass bool }

// yieldCounts is the yield reduction's accumulator.
type yieldCounts struct{ good, pass, escapes, overkill int }

// replayYield recomputes a yield campaign spec (params p, decision
// threshold already resolved) on sys. Every trial records spans under
// the reduction span: rng.draw (the die's component draws),
// biquad.perturb, biquad.output, wave.eval, monitor.classify,
// signature.extract (scan-code refinement to the exact signature) and
// ndf.ndf.
func replayYield(ctx context.Context, tr *tracer, rc *replayCounts, sys *core.System, spec testbench.Spec, p testbench.YieldParams, threshold float64) (*testbench.Yield, error) {
	if err := checkReplayable(sys); err != nil {
		return nil, err
	}
	root := tr.begin("replay.yield", -1, -1)
	defer tr.end(root)
	golden, err := sys.GoldenSignature()
	if err != nil {
		return nil, err
	}
	nominal := sys.Golden()
	T := sys.Period()
	ts := make([]float64, sys.ScanN+1)
	for i := range ts {
		ts[i] = T * float64(i) / float64(sys.ScanN)
	}
	xs := make([]float64, len(ts))
	wave.EvalInto(sys.Stimulus, ts, xs)
	dec := ndf.Decision{Threshold: threshold}
	eng := campaign.Engine{Workers: spec.Workers, Seed: spec.Seed, Chunk: spec.Chunk, Meter: rc}
	red := tr.begin("campaign.reduce", root, -1)

	trial := func(i int, sc *replayScratch) (yieldVerdict, error) {
		tid := tr.begin("campaign.trial", red, i)
		defer tr.end(tid)
		rc.trials.Add(1)
		id := tr.begin("rng.draw", tid, i)
		s := eng.Stream(i)
		dev := core.Deviation{
			RDrift:  s.Gauss(0, p.ComponentSigma),
			RQDrift: s.Gauss(0, p.ComponentSigma),
			RGDrift: s.Gauss(0, p.ComponentSigma),
			CDrift:  s.Gauss(0, p.ComponentSigma),
		}
		tr.end(id)
		id = tr.begin("biquad.perturb", tid, i)
		cut, err := sys.Deviated(dev)
		tr.end(id)
		if err != nil {
			return yieldVerdict{}, err
		}
		cp := cut.Params()
		inBand := func(val, nom, frac float64) bool {
			return val >= nom*(1-frac) && val <= nom*(1+frac)
		}
		good := inBand(cp.F0, nominal.F0, p.Tol) &&
			inBand(cp.Q, nominal.Q, 2*p.Tol) &&
			inBand(cp.Gain, nominal.Gain, p.Tol)

		id = tr.begin("biquad.output", tid, i)
		out, err := output(sys, cut, sc)
		tr.end(id)
		if err != nil {
			return yieldVerdict{}, err
		}
		id = tr.begin("wave.eval", tid, i)
		sc.ys = grow(sc.ys, len(ts))
		wave.EvalInto(out, ts, sc.ys)
		tr.end(id)
		id = tr.begin("monitor.classify", tid, i)
		codes := sc.capture.Codes(len(ts))
		sys.Bank.ClassifyBatch(xs, sc.ys, codes)
		tr.end(id)
		rc.points.Add(int64(len(ts)))

		refines := int64(0)
		cls := func(t float64) monitor.Code {
			refines++
			return sys.Bank.Classify(sys.Stimulus.Eval(t), out.Eval(t))
		}
		id = tr.begin("signature.extract", tid, i)
		sig, err := signature.ExactFromCodes(codes, cls, T, 0)
		tr.end(id)
		rc.refines.Add(refines)
		if err != nil {
			return yieldVerdict{}, err
		}
		id = tr.begin("ndf.ndf", tid, i)
		v, err := ndf.NDF(sig, golden)
		tr.end(id)
		if err != nil {
			return yieldVerdict{}, err
		}
		return yieldVerdict{good: good, pass: dec.Pass(v)}, nil
	}

	acc, err := campaign.ReduceScratch(ctx, eng, p.N, campaign.Reducer[yieldVerdict, yieldCounts]{
		Fold: func(acc yieldCounts, _ int, v yieldVerdict) yieldCounts {
			if v.good {
				acc.good++
			}
			if v.pass {
				acc.pass++
			}
			switch {
			case v.pass && !v.good:
				acc.escapes++
			case !v.pass && v.good:
				acc.overkill++
			}
			return acc
		},
		Merge: func(into, next yieldCounts) yieldCounts {
			into.good += next.good
			into.pass += next.pass
			into.escapes += next.escapes
			into.overkill += next.overkill
			return into
		},
	}, func() *replayScratch { return &replayScratch{} }, trial)
	tr.end(red)
	if err != nil {
		return nil, err
	}
	y := &testbench.Yield{
		N: p.N, ComponentSigma: p.ComponentSigma, Tolerance: p.Tol, Threshold: threshold,
		TrueGood: acc.good, PassCount: acc.pass, Escapes: acc.escapes, Overkill: acc.overkill,
	}
	y.YieldLo, y.YieldHi = stat.Wilson(y.PassCount, y.N, 0.95)
	if y.PassCount > 0 {
		y.DefectLo, y.DefectHi = stat.Wilson(y.Escapes, y.PassCount, 0.95)
	}
	return y, nil
}

// noisePeriods is the number of Lissajous periods the noise campaign
// averages per measurement.
const noisePeriods = 5

// replayNoise recomputes a noise campaign spec on sys. Each trial
// records biquad.output and wave.eval once, then per period rng.draw
// (the measurement noise), monitor.classify, signature.extract (the
// clocked canonical capture) and ndf.ndf. The null phase runs through
// testbench.CalibrateNullThreshold, the detection phases through
// campaign.ReduceScratch, each under its own phase span.
func replayNoise(ctx context.Context, tr *tracer, rc *replayCounts, sys *core.System, spec testbench.Spec, p testbench.NoiseParams) (*testbench.Noise, error) {
	if err := checkReplayable(sys); err != nil {
		return nil, err
	}
	root := tr.begin("replay.noise", -1, -1)
	defer tr.end(root)
	golden, err := sys.GoldenSignature()
	if err != nil {
		return nil, err
	}
	T := sys.Period()
	n, err := sys.Capture.Ticks(T)
	if err != nil {
		return nil, err
	}
	tick := 1 / sys.Capture.ClockHz
	ts := make([]float64, n)
	for k := range ts {
		ts[k] = float64(k) * tick
	}
	xs := make([]float64, n)
	wave.EvalInto(sys.Stimulus, ts, xs)
	eff := core.EffectiveNoiseSigma(p.Sigma)
	eng := campaign.Engine{Workers: spec.Workers, Seed: spec.Seed, Chunk: spec.Chunk, Meter: rc}

	// CalibrateNullThreshold hands trials core's per-worker scratch; the
	// replay keys its own buffers by that pointer.
	var mu sync.Mutex
	scratch := map[*core.TrialScratch]*replayScratch{}
	scratchFor := func(sc *core.TrialScratch) *replayScratch {
		mu.Lock()
		defer mu.Unlock()
		rs, ok := scratch[sc]
		if !ok {
			rs = &replayScratch{}
			scratch[sc] = rs
		}
		return rs
	}

	trialAt := func(phase int, shift float64, base uint64) (func(i int, sc *core.TrialScratch) (float64, error), error) {
		id := tr.begin("biquad.perturb", phase, -1)
		cut, err := sys.Shifted(shift)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		return func(i int, sc *core.TrialScratch) (float64, error) {
			tid := tr.begin("campaign.trial", phase, i)
			defer tr.end(tid)
			rc.trials.Add(1)
			rs := scratchFor(sc)
			id := tr.begin("rng.draw", tid, i)
			src := rng.NewSub(eng.Seed, base+uint64(i))
			var streams [noisePeriods]*rng.Stream
			for k := range streams {
				streams[k] = src.Split(uint64(k))
			}
			tr.end(id)
			id = tr.begin("biquad.output", tid, i)
			out, err := output(sys, cut, rs)
			tr.end(id)
			if err != nil {
				return 0, err
			}
			id = tr.begin("wave.eval", tid, i)
			rs.ys = grow(rs.ys, n)
			wave.EvalInto(out, ts, rs.ys)
			tr.end(id)
			sum := 0.0
			for k := range streams {
				id = tr.begin("rng.draw", tid, i)
				rs.xv, rs.yv = grow(rs.xv, n), grow(rs.yv, n)
				for j := 0; j < n; j++ {
					rs.xv[j] = xs[j] + streams[k].Gauss(0, eff)
					rs.yv[j] = rs.ys[j] + streams[k].Gauss(0, eff)
				}
				tr.end(id)
				id = tr.begin("monitor.classify", tid, i)
				codes := rs.capture.Codes(n)
				sys.Bank.ClassifyBatch(rs.xv, rs.yv, codes)
				tr.end(id)
				rc.points.Add(int64(n))
				id = tr.begin("signature.extract", tid, i)
				obs, err := signature.CaptureCanonicalCodes(codes, T, sys.Capture, &rs.capture)
				tr.end(id)
				if err != nil {
					return 0, err
				}
				id = tr.begin("ndf.ndf", tid, i)
				v, err := ndf.NDF(obs, golden)
				tr.end(id)
				if err != nil {
					return 0, err
				}
				sum += v
			}
			return sum / noisePeriods, nil
		}, nil
	}

	phase := tr.begin("testbench.null_calibration", root, -1)
	nullTrial, err := trialAt(phase, 0, 0)
	if err != nil {
		return nil, err
	}
	dec, err := testbench.CalibrateNullThreshold(ctx, eng, p.NullTrials, p.SketchPrec, nullTrial)
	tr.end(phase)
	if err != nil {
		return nil, err
	}
	out := &testbench.Noise{Sigma: p.Sigma, Periods: noisePeriods, Threshold: dec.Threshold, Devs: p.Devs}
	// Phase p draws its streams from id base p<<32, as the noise
	// campaign does: 0 null, 1 fresh nulls, 2+ one per deviation.
	detect := func(shift float64, base uint64) (int, error) {
		phase := tr.begin("testbench.detect", root, -1)
		defer tr.end(phase)
		trial, err := trialAt(phase, shift, base)
		if err != nil {
			return 0, err
		}
		return campaign.ReduceScratch(ctx, eng, p.Trials, campaign.Reducer[float64, int]{
			Fold: func(acc int, _ int, v float64) int {
				if !dec.Pass(v) {
					acc++
				}
				return acc
			},
			Merge: func(into, next int) int { return into + next },
		}, core.NewTrialScratch, trial)
	}
	fa, err := detect(0, 1<<32)
	if err != nil {
		return nil, err
	}
	out.FalseRate = float64(fa) / float64(p.Trials)
	out.FalseLo, out.FalseHi = stat.Wilson(fa, p.Trials, 0.95)
	for di, d := range p.Devs {
		det, err := detect(d, uint64(2+di)<<32)
		if err != nil {
			return nil, err
		}
		out.Detect = append(out.Detect, float64(det)/float64(p.Trials))
		lo, hi := stat.Wilson(det, p.Trials, 0.95)
		out.DetectLo = append(out.DetectLo, lo)
		out.DetectHi = append(out.DetectHi, hi)
	}
	return out, nil
}
