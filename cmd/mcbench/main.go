// Command mcbench is the repository's benchmark: it runs the X-Y zoning
// signature test the way its users run it — Monte-Carlo campaigns in
// process, and the same campaigns submitted to the mcserved job service
// and to the durable sharded fabric — and prints every end-to-end metric
// with its unit, after checking every output.
//
//	bash cmd/mcbench/run.sh --workload yield-analytic --seed 1 --seconds 18 --trace 0
//	mcbench -workload all -seed 7 -out runs.jsonl     # every workload, result file
//	mcbench -workload noise-analytic -trace 1 -spans spans.jsonl
//	mcbench -compare a.jsonl b.jsonl -- c.jsonl d.jsonl
//	mcbench -pin > cmd/mcbench/digests.txt            # re-pin seed-1 payload digests
//
// The inputs are a pure function of -seed. A run measures for -seconds
// (and at least a few operations), then prints "workload metric value
// unit" lines and, last, one JSON object with the keys correct,
// attempted, failed and metrics. With -trace 1 the run also replays a
// reduced-size operation through the layers' public functions, a span
// around every call, and the JSON carries the per-layer metrics
// instead; see README.md for the workloads, the metrics and how to read
// a trace.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Uint64("seed", 1, "workload seed; the inputs are a pure function of it")
		secs    = flag.Float64("seconds", 18, "measured window per workload, in seconds")
		trace   = flag.Int("trace", 0, "1 adds the traced replay and prints the per-layer metrics")
		spans   = flag.String("spans", "", "with -trace 1, write the spans here as JSON lines")
		outPath = flag.String("out", "", "append one result line per workload to this file")
		cmp     = flag.Bool("compare", false, "compare result files: -compare A... -- B...")
		bench   = flag.String("bench", "BENCHMARK.json", "benchmark definition -compare reads its bounds from")
		pin     = flag.Bool("pin", false, "print the seed-1 payload digest table (the content of digests.txt)")
	)
	flag.Parse()
	if *cmp {
		if err := compare(*bench, flag.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "mcbench:", err)
			return 1
		}
		return 0
	}
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *secs < 0 {
		flag.Usage()
		return 2
	}
	pins, err := parseDigests(digestsTxt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcbench:", err)
		return 1
	}
	var selected []workload
	if *name == "all" {
		selected = workloads
	} else {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mcbench:", err)
			return 2
		}
		selected = []workload{w}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// A hung service fails its operations rather than the run.
	ctx, cancel := context.WithTimeout(ctx, time.Duration((*secs+150)*float64(time.Second)))
	defer cancel()

	if *pin {
		if err := pinDigests(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "mcbench:", err)
			return 1
		}
		return 0
	}
	prov := stamp()
	for _, w := range selected {
		o := options{seed: *seed, seconds: *secs, trace: *trace == 1, pins: pins, spans: *spans}
		out, err := w.run(ctx, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mcbench: %s: %v\n", w.name, err)
			return 1
		}
		out.print(prov)
		if *outPath != "" {
			if err := out.appendResult(*outPath, prov); err != nil {
				fmt.Fprintln(os.Stderr, "mcbench:", err)
				return 1
			}
		}
	}
	return 0
}

// pinnedOps is how many leading operations of each seed-1 run the digest
// table pins.
const pinnedOps = 16

// pinDigests runs the first operations of every workload at seed 1, at
// full and at test size, and prints their digest lines.
func pinDigests(ctx context.Context) error {
	fmt.Println("# Payload digests pinned by `mcbench -pin`: <workload> <op> <key> <sha256>.")
	for _, wl := range workloads {
		for _, tiny := range []bool{false, true} {
			out, err := wl.run(ctx, options{seed: 1, tiny: tiny})
			if err != nil {
				return fmt.Errorf("%s: %w", wl.name, err)
			}
			if out.failed > 0 {
				return fmt.Errorf("%s: %d operations failed: %s", wl.name, out.failed, strings.Join(out.errs, "; "))
			}
			size := "full"
			if tiny {
				size = "tiny"
			}
			for i, op := range out.ops[:min(pinnedOps, len(out.ops))] {
				fmt.Printf("%s %s-%d %s %s\n", wl.name, size, i, op.Key, op.Digest)
			}
		}
	}
	return nil
}

// outcome is one workload run: operation counts, the metrics, and the
// figures only the human report and the result file carry.
type outcome struct {
	workload          string
	seed              uint64
	seconds           float64
	trace             bool
	attempted, failed int
	e2e, layers       map[string]float64
	extra             map[string]float64
	sizes             map[string]int
	ops               []opRecord
	errs              []string
}

func newOutcome(name string, o options) *outcome {
	return &outcome{
		workload: name, seed: o.seed, seconds: o.seconds, trace: o.trace,
		e2e: map[string]float64{}, layers: map[string]float64{}, extra: map[string]float64{},
	}
}

// record counts one attempted operation, failed when err is non-nil,
// and reports whether it succeeded.
func (out *outcome) record(op int, err error) bool {
	out.attempted++
	if err == nil {
		return true
	}
	out.failed++
	if len(out.errs) < 8 {
		out.errs = append(out.errs, fmt.Sprintf("op %d: %v", op, err))
	}
	return false
}

// verifyPayload verifies an in-process payload.
func (out *outcome) verifyPayload(o options, input []byte, campaign string, trials int, payload any) error {
	raw, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	return out.verifyRaw(o, input, campaign, trials, raw)
}

// verifyRaw verifies a payload in its JSON form and records its digest.
func (out *outcome) verifyRaw(o options, input []byte, campaign string, trials int, raw []byte) error {
	canon, err := compactJSON(raw)
	if err != nil {
		return err
	}
	key := opKey(out.workload, input)
	out.ops = append(out.ops, opRecord{Key: key, Digest: digest(canon)})
	return verify(o.pins, key, campaign, trials, canon)
}

// layerSpans are the span names of the layers a trial calls into.
var layerSpans = []string{"rng.draw", "biquad.perturb", "biquad.output", "wave.eval", "monitor.classify", "signature.extract", "ndf.ndf"}

// setReplayLayers derives the per-trial layer metrics from a replay's
// trace: self time per trial of every layer span, the work counts, how
// busy the workers were, and how much of their time the layer spans
// explain.
func (out *outcome) setReplayLayers(tr *tracer, rc *replayCounts, workers, replays int) {
	lt := tr.totals()
	trials := float64(rc.trials.Load())
	var layerSelf time.Duration
	for _, name := range layerSpans {
		out.layers[name+"_us"] = lt.self[name].Seconds() * 1e6 / trials
		layerSelf += lt.self[name]
	}
	capacity := float64(workers) * (lt.dur["campaign.reduce"] + lt.dur["testbench.null_calibration"] + lt.dur["testbench.detect"]).Seconds()
	out.layers["monitor.points"] = float64(rc.points.Load()) / trials
	out.layers["signature.refine_calls"] = float64(rc.refines.Load()) / trials
	out.layers["campaign.busy_frac"] = lt.dur["campaign.trial"].Seconds() / capacity
	out.layers["trace.cover_frac"] = layerSelf.Seconds() / capacity
	out.layers["campaign.chunks"] = float64(rc.chunks.Load()) / float64(replays)
	out.extra["trace.spans"] = float64(tr.len())
	out.extra["trace.replayed_trials"] = trials
}

// writeSpans writes the trace when the run asked for a span file.
func (out *outcome) writeSpans(o options, tr *tracer) error {
	if o.spans == "" {
		return nil
	}
	return tr.writeFile(o.spans)
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractMetrics returns the metrics of the result line — end-to-end
// untraced, per-layer traced — and whether every one was measured.
func (out *outcome) contractMetrics() (map[string]metricValue, bool) {
	specs, vals := endToEnd, out.e2e
	if out.trace {
		specs, vals = perLayer, out.layers
	}
	m := map[string]metricValue{}
	complete := true
	for _, s := range specs {
		v, ok := vals[s.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			v, complete = 0, false
		}
		m[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	return m, complete
}

// print writes the human report and, last, the result line.
func (out *outcome) print(prov provenance) {
	fmt.Printf("# mcbench workload=%s seed=%d seconds=%g trace=%t revision=%s modified=%s go=%s gomaxprocs=%d nproc=%d cpu=%q\n",
		out.workload, out.seed, out.seconds, out.trace, prov.Revision, prov.Modified, prov.GoVersion, prov.GOMAXPROCS, prov.NumCPU, prov.CPU)
	fmt.Printf("# sizes %s\n", formatSizes(out.sizes))
	for _, s := range endToEnd {
		if v, ok := out.e2e[s.name]; ok {
			fmt.Printf("%s %s %.6g %s\n", out.workload, s.name, v, s.unit)
		}
	}
	for _, s := range perLayer {
		if v, ok := out.layers[s.name]; ok {
			fmt.Printf("%s %s %.6g %s\n", out.workload, s.name, v, s.unit)
		}
	}
	for _, k := range sortedKeys(out.extra) {
		fmt.Printf("# %s %s %.6g\n", out.workload, k, out.extra[k])
	}
	for _, e := range out.errs {
		fmt.Printf("# %s failure: %s\n", out.workload, e)
	}
	m, complete := out.contractMetrics()
	attempted, failed := out.attempted, out.failed
	if attempted == 0 { // nothing ran: count the run itself as one failed operation
		attempted, failed = 1, 1
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{failed == 0 && complete, attempted, failed, m})
	if err != nil {
		panic(err) // finite floats, strings and ints always marshal
	}
	fmt.Printf("%s\n", line)
}

// result is one line of a result file.
type result struct {
	Provenance provenance         `json:"provenance"`
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Trace      bool               `json:"trace"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	EndToEnd   map[string]float64 `json:"end_to_end"`
	PerLayer   map[string]float64 `json:"per_layer,omitempty"`
	Extra      map[string]float64 `json:"extra"`
	Sizes      map[string]int     `json:"sizes"`
	Ops        []opRecord         `json:"ops"`
	Failures   []string           `json:"failures,omitempty"`
}

// appendResult appends the run's result line to path.
func (out *outcome) appendResult(path string, prov provenance) error {
	line, err := json.Marshal(result{
		Provenance: prov, Workload: out.workload, Seed: out.seed, Seconds: out.seconds, Trace: out.trace,
		Attempted: out.attempted, Failed: out.failed, EndToEnd: finite(out.e2e), PerLayer: finite(out.layers),
		Extra: finite(out.extra), Sizes: out.sizes, Ops: out.ops, Failures: out.errs,
	})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		_ = f.Close() // the write error is the one to report
		return err
	}
	return f.Close()
}

// finite drops values JSON cannot carry.
func finite(m map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for _, k := range sortedKeys(m) {
		if v := m[k]; !math.IsNaN(v) && !math.IsInf(v, 0) {
			out[k] = v
		}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func formatSizes(m map[string]int) string {
	var parts []string
	for _, k := range sortedKeys(m) {
		parts = append(parts, fmt.Sprintf("%s=%d", k, m[k]))
	}
	return strings.Join(parts, " ")
}
