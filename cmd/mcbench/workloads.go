package main

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/testbench"
)

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run of every workload. For the batch workloads a "job" is one
// segment: a campaign run on the warmed System.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"trials_per_s", "1/s", "higher"},
	{"jobs_per_s", "1/s", "higher"},
	{"job_p50_s", "s", "lower"},
	{"job_p90_s", "s", "lower"},
	{"alloc_b_per_op", "B", "lower"},
	{"live_heap_mb", "MB", "lower"},
}

// perLayer are the single-layer metrics a traced run prints. Every one
// is measured on every workload: per-trial figures come from replaying
// the workload's own campaigns (or, for the services, a sample of their
// yield jobs) through the layers' public functions.
var perLayer = []metricSpec{
	{"core.system_s", "s", "lower"},
	{"core.golden_s", "s", "lower"},
	{"monitor.lut_build_s", "s", "lower"},
	{"rng.draw_us", "us", "lower"},
	{"biquad.perturb_us", "us", "lower"},
	{"biquad.output_us", "us", "lower"},
	{"wave.eval_us", "us", "lower"},
	{"monitor.classify_us", "us", "lower"},
	{"monitor.points", "count", "lower"},
	{"signature.extract_us", "us", "lower"},
	{"signature.refine_calls", "count", "lower"},
	{"ndf.ndf_us", "us", "lower"},
	{"campaign.busy_frac", "frac", "higher"},
	{"campaign.chunks", "count", "lower"},
	{"testbench.validate_us", "us", "lower"},
	{"testbench.run_ms", "ms", "lower"},
	{"testbench.encode_us", "us", "lower"},
	{"testbench.result_bytes", "B", "lower"},
	{"trace.cover_frac", "frac", "higher"},
	{"trace_overhead_frac", "frac", "lower"},
}

// options configure one workload run.
type options struct {
	seed    uint64
	seconds float64 // measured window; the run also completes minOps operations
	trace   bool
	tiny    bool              // test-size inputs
	pins    map[string]string // pinned payload digests by operation key
	spans   string            // file the traced run's spans go to ("" = none)
}

// workload is one benchmark workload.
type workload struct {
	name string
	why  string
	run  func(ctx context.Context, o options) (*outcome, error)
}

var workloads = []workload{
	{"yield-analytic",
		"exact-signature path (zone-LUT classify, bisection refinement) on the analytic CUT, whose output is almost free; a SPICE change shows no effect here",
		func(ctx context.Context, o options) (*outcome, error) {
			return runBatch(ctx, o, yieldBatch("yield-analytic", "analytic"))
		}},
	{"yield-spice",
		"same campaign on the SPICE backend: the template transient is the largest layer, so CUT-layer changes show here and nowhere else",
		func(ctx context.Context, o options) (*outcome, error) {
			return runBatch(ctx, o, yieldBatch("yield-spice", "spice"))
		}},
	{"noise-analytic",
		"the paper's 1% claim: clocked 2000-tick captures x5 periods with rng noise, null calibration on the streaming-sketch path",
		func(ctx context.Context, o options) (*outcome, error) { return runBatch(ctx, o, noiseBatch()) }},
	{"serve-mixed",
		"in-process mcserved, 2 closed-loop clients, small mixed jobs: per-job setup plus HTTP/JSON dominate, campaign compute is small",
		runServeMixed},
	{"fabric-sharded",
		"durable sharded path: on-disk store, 2 HTTP workers, lease/heartbeat/checkpoint writes and merge on sequential yield jobs",
		runFabric},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// splitmix64 derives every per-operation knob from (seed, index), so the
// inputs are a pure function of -seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// opHash is operation k's hash under the workload seed.
func opHash(seed uint64, k int) uint64 { return splitmix64(splitmix64(seed) ^ uint64(k)) }

// yieldThreshold is the pinned decision threshold of the yield workloads
// (pinning skips the corner calibration, so segments measure trials).
const yieldThreshold = 0.03

// specJSON is the canonical encoding of a spec, the input its operation
// key hashes.
func specJSON(spec testbench.Spec) []byte {
	b, err := json.Marshal(spec)
	if err != nil {
		panic(err) // specs built here always marshal
	}
	return b
}

// trialsOf is the number of campaign trials a spec's params ask for:
// dies for yield and fig4mc, null plus detection trials for noise.
func trialsOf(params any) int {
	switch p := params.(type) {
	case testbench.YieldParams:
		return p.N
	case testbench.NoiseParams:
		return p.NullTrials + p.Trials*(1+len(p.Devs))
	case testbench.Fig4MCParams:
		return p.Dies
	}
	panic(fmt.Sprintf("trialsOf: unexpected params %T", params)) // the benchmark builds every spec
}
