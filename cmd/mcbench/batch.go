package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/biquad"
	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/testbench"
)

// batchDef is a batch workload: a sequence of campaign segments run on
// one warmed System.
type batchDef struct {
	name     string
	backend  string
	campaign string
	minOps   int // segments every run completes, even past the window
	// segment builds segment k's spec and typed params; quarter asks for
	// the reduced size the traced replay runs.
	segment func(o options, k int, quarter bool) (testbench.Spec, any)
	// replay recomputes a segment through the layers' public functions.
	replay func(ctx context.Context, tr *tracer, rc *replayCounts, sys *core.System, spec testbench.Spec, params any) (any, error)
}

// yieldBatch is the yield campaign on one backend: pinned threshold,
// default component sigma and tolerance, segments of fixed die count.
func yieldBatch(name, backend string) batchDef {
	dies, chunk, tinyDies := 500, 32, 40
	if backend == "spice" {
		dies, chunk, tinyDies = 250, 16, 12
	}
	return batchDef{
		name: name, backend: backend, campaign: "yield", minOps: 4,
		segment: func(o options, k int, quarter bool) (testbench.Spec, any) {
			n, c := dies, chunk
			if o.tiny {
				n, c = tinyDies, 4
			}
			if quarter { // same chunk count, so the same parallel structure
				n, c = n/4, max(c/4, 1)
			}
			th := yieldThreshold
			p := testbench.YieldParams{N: n, ComponentSigma: 0.02, Tol: 0.05, Threshold: &th}
			return testbench.Spec{Campaign: "yield", Backend: backend, Seed: opHash(o.seed, k) % 1_000_000,
				Workers: 2, Chunk: c, Params: p}, p
		},
		replay: func(ctx context.Context, tr *tracer, rc *replayCounts, sys *core.System, spec testbench.Spec, params any) (any, error) {
			p := params.(testbench.YieldParams)
			return replayYield(ctx, tr, rc, sys, spec, p, *p.Threshold)
		},
	}
}

// noiseBatch is the noise-detection campaign with more null trials than
// testbench.ExactNullCutoff, so calibration streams through sketches.
func noiseBatch() batchDef {
	return batchDef{
		name: "noise-analytic", backend: "analytic", campaign: "noise", minOps: 3,
		segment: func(o options, k int, quarter bool) (testbench.Spec, any) {
			null, trials, chunk := testbench.ExactNullCutoff+4, 100, 256
			if o.tiny {
				null, trials, chunk = 40, 4, 8
			}
			if quarter {
				trials /= 4
			}
			p := testbench.NoiseParams{Sigma: 0.005, Devs: []float64{0.005, 0.01, 0.02, 0.05}, NullTrials: null, Trials: trials}
			return testbench.Spec{Campaign: "noise", Seed: opHash(o.seed, k) % 1_000_000,
				Workers: 2, Chunk: chunk, Params: p}, p
		},
		replay: func(ctx context.Context, tr *tracer, rc *replayCounts, sys *core.System, spec testbench.Spec, params any) (any, error) {
			return replayNoise(ctx, tr, rc, sys, spec, params.(testbench.NoiseParams))
		},
	}
}

// setupTimes are the medians of the set-up steps a fresh System pays.
type setupTimes struct {
	total  float64 // all of the below
	system float64 // core.SystemForBackend
	golden float64 // GoldenSignature, which certifies the zone LUT
	first  float64 // the first template-served output (SPICE only)
}

// freshSystems builds reps fresh systems the way a job pays for one and
// returns the last with the median time of each step.
func freshSystems(backend string, reps int) (*core.System, setupTimes, error) {
	var warm *core.System
	var total, system, golden, first []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		sys, err := core.SystemForBackend(backend)
		if err != nil {
			return nil, setupTimes{}, err
		}
		t1 := time.Now()
		if _, err := sys.GoldenSignature(); err != nil {
			return nil, setupTimes{}, err
		}
		t2 := time.Now()
		if to, ok := sys.CUT.(trialOutputter); ok {
			var sc biquad.SpiceTrialScratch
			if _, err := to.OutputScratch(sys.Stimulus, biquad.OutputLP, &sc); err != nil {
				return nil, setupTimes{}, err
			}
		}
		t3 := time.Now()
		total = append(total, t3.Sub(t0).Seconds())
		system = append(system, t1.Sub(t0).Seconds())
		golden = append(golden, t2.Sub(t1).Seconds())
		first = append(first, t3.Sub(t2).Seconds())
		warm = sys
	}
	return warm, setupTimes{median(total), median(system), median(golden), median(first)}, nil
}

// setSetupLayers records the set-up layers: system construction, the
// golden signature, and on its own the zone-LUT certification a fresh
// bank's first batch classification triggers (median of three).
func (out *outcome) setSetupLayers(st setupTimes) {
	var lut []float64
	for r := 0; r < 3; r++ {
		bank := monitor.NewAnalyticTableI()
		t := time.Now()
		bank.BatchInfo()
		lut = append(lut, time.Since(t).Seconds())
	}
	out.layers["core.system_s"] = st.system
	out.layers["core.golden_s"] = st.golden
	out.layers["monitor.lut_build_s"] = median(lut)
}

// validateMicros is the mean testbench.Validate time over specs.
func validateMicros(specs []testbench.Spec) (float64, error) {
	const reps = 20
	t := time.Now()
	for r := 0; r < reps; r++ {
		for _, s := range specs {
			if err := testbench.Validate(s); err != nil {
				return 0, err
			}
		}
	}
	return time.Since(t).Seconds() * 1e6 / float64(reps*len(specs)), nil
}

// runBatch measures a batch workload: set-up on fresh systems, then
// segments on the last of them until the window closes.
func runBatch(ctx context.Context, o options, b batchDef) (*outcome, error) {
	out := newOutcome(b.name, o)
	reps, minOps := 9, b.minOps
	if o.tiny {
		reps, minOps = 2, 2
	}
	warm, setup, err := freshSystems(b.backend, reps)
	if err != nil {
		return nil, err
	}
	out.e2e["setup_s"] = setup.total

	var (
		durs          []time.Duration
		tps           []float64
		specs         []testbench.Spec
		encode, sizes []float64
		trials        int
	)
	runtime.GC()
	alloc0 := totalAlloc()
	start := time.Now()
	for k := 0; k < 1000 && (k < minOps || time.Since(start).Seconds() < o.seconds); k++ {
		spec, params := b.segment(o, k, false)
		t := time.Now()
		res, err := testbench.Run(ctx, spec, testbench.WithSystem(warm))
		d := time.Since(t)
		n := trialsOf(params)
		if err == nil {
			err = out.verifyPayload(o, specJSON(spec), b.campaign, n, res.Payload)
		}
		if !out.record(k, err) {
			if ctx.Err() != nil {
				break
			}
			continue
		}
		durs = append(durs, d)
		tps = append(tps, float64(n)/d.Seconds())
		specs = append(specs, spec)
		trials += n
		if o.trace {
			t := time.Now()
			blob, err := json.Marshal(res)
			if err != nil {
				return nil, err
			}
			encode = append(encode, float64(time.Since(t).Nanoseconds())/1e3)
			sizes = append(sizes, float64(len(blob)))
		}
	}
	alloc := totalAlloc() - alloc0
	heapMB := liveHeapMB()
	if len(durs) == 0 {
		return out, nil
	}
	total := time.Duration(0)
	for _, d := range durs {
		total += d
	}
	lat := seconds(durs)
	out.e2e["trials_per_s"] = median(tps)
	out.e2e["jobs_per_s"] = float64(len(durs)) / total.Seconds()
	out.e2e["job_p50_s"] = median(lat)
	out.e2e["job_p90_s"] = percentile(lat, 0.9)
	out.e2e["alloc_b_per_op"] = float64(alloc) / float64(trials)
	out.e2e["live_heap_mb"] = heapMB
	out.extra["trials_per_s.min"] = percentile(tps, 0)
	out.extra["trials_per_s.max"] = percentile(tps, 1)
	out.extra["jobs"] = float64(len(durs))
	out.sizes = sizesOf(b.segment(o, 0, false))
	if b.backend == "spice" {
		out.extra["spice.first_output_s"] = setup.first
	}
	if !o.trace {
		return out, nil
	}

	out.setSetupLayers(setup)
	if out.layers["testbench.validate_us"], err = validateMicros(specs); err != nil {
		return nil, err
	}
	out.layers["testbench.run_ms"] = 1e3 * mean(lat)
	out.layers["testbench.encode_us"] = mean(encode)
	out.layers["testbench.result_bytes"] = mean(sizes)

	// The traced run: one quarter-size segment, first untraced through
	// testbench.Run, then replayed through the layers. Its payload must
	// match bit for bit.
	spec, params := b.segment(o, 0, true)
	t := time.Now()
	res, err := testbench.Run(ctx, spec, testbench.WithSystem(warm))
	untraced := time.Since(t)
	if err != nil {
		return nil, err
	}
	want, err := json.Marshal(res.Payload)
	if err != nil {
		return nil, err
	}
	tr, rc := newTracer(), &replayCounts{}
	t = time.Now()
	payload, err := b.replay(ctx, tr, rc, warm, spec, params)
	traced := time.Since(t)
	out.record(-1, samePayload(payload, err, want))
	out.setReplayLayers(tr, rc, spec.Workers, 1)
	out.layers["trace_overhead_frac"] = 1 - untraced.Seconds()/traced.Seconds()
	if b.campaign == "noise" {
		lt := tr.totals()
		out.extra["testbench.null_calibration_s"] = lt.dur["testbench.null_calibration"].Seconds()
		out.extra["testbench.detect_s"] = lt.dur["testbench.detect"].Seconds()
		out.extra["rng.noise_us_per_period"] = out.layers["rng.draw_us"] / noisePeriods
		out.extra["signature.capture_us_per_period"] = out.layers["signature.extract_us"] / noisePeriods
	}
	return out, out.writeSpans(o, tr)
}

// samePayload reports a replayed payload that differs from the
// canonical payload of the untraced run, or the replay's own error.
func samePayload(replayed any, replayErr error, want []byte) error {
	if replayErr != nil {
		return fmt.Errorf("traced replay: %w", replayErr)
	}
	got, err := json.Marshal(replayed)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("traced replay payload differs from the untraced run:\nreplay:   %s\nuntraced: %s", got, want)
	}
	return nil
}

// sizesOf records the knobs of a workload's operation for the stamp.
func sizesOf(spec testbench.Spec, params any) map[string]int {
	m := map[string]int{"workers": spec.Workers, "chunk": spec.Chunk}
	switch p := params.(type) {
	case testbench.YieldParams:
		m["dies"] = p.N
	case testbench.NoiseParams:
		m["null_trials"], m["trials"], m["devs"] = p.NullTrials, p.Trials, len(p.Devs)
	}
	return m
}
