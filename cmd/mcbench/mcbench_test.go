package main

import (
	"context"
	"encoding/json"
	"go/format"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/lint"
	"repro/internal/testbench"
)

func pinnedDigests(t *testing.T) map[string]string {
	t.Helper()
	pins, err := parseDigests(digestsTxt)
	if err != nil {
		t.Fatal(err)
	}
	return pins
}

// TestWorkloadsTinyVerify runs every workload at test size, untraced and
// traced, at the pinned seed and at another one: every operation must
// pass verification (pinned digests, invariants, single-node reruns,
// replay bit-identity) and every contract metric must be measured.
func TestWorkloadsTinyVerify(t *testing.T) {
	pins := pinnedDigests(t)
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			for _, o := range []options{
				{seed: 1, tiny: true, pins: pins},
				{seed: 1, tiny: true, pins: pins, trace: true},
				{seed: 7, tiny: true, pins: pins},
			} {
				out, err := w.run(context.Background(), o)
				if err != nil {
					t.Fatalf("seed %d trace %t: %v", o.seed, o.trace, err)
				}
				if out.attempted == 0 || out.failed != 0 {
					t.Fatalf("seed %d trace %t: %d of %d operations failed: %v", o.seed, o.trace, out.failed, out.attempted, out.errs)
				}
				if _, complete := out.contractMetrics(); !complete {
					t.Errorf("seed %d trace %t: missing metrics; end-to-end %v, per-layer %v", o.seed, o.trace, out.e2e, out.layers)
				}
			}
		})
	}
}

// TestReplayBitIdentical replays yield on both backends and noise
// through the layers' public functions and requires the untraced
// testbench.Run payload bit for bit.
func TestReplayBitIdentical(t *testing.T) {
	ctx := context.Background()
	for _, b := range []batchDef{yieldBatch("yield-analytic", "analytic"), yieldBatch("yield-spice", "spice"), noiseBatch()} {
		sys, err := core.SystemForBackend(b.backend)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 2; k++ {
			spec, params := b.segment(options{seed: 3, tiny: true}, k, false)
			res, err := testbench.Run(ctx, spec, testbench.WithSystem(sys))
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(res.Payload)
			if err != nil {
				t.Fatal(err)
			}
			got, err := b.replay(ctx, newTracer(), &replayCounts{}, sys, spec, params)
			if err := samePayload(got, err, want); err != nil {
				t.Errorf("%s segment %d: %v", b.name, k, err)
			}
		}
	}
}

// TestCorruptedDigestFailsEveryOperation pins every test-size operation
// of yield-analytic at seed 1, then corrupts the table: every operation
// must then count as failed.
func TestCorruptedDigestFailsEveryOperation(t *testing.T) {
	pins := pinnedDigests(t)
	w, err := findWorkload("yield-analytic")
	if err != nil {
		t.Fatal(err)
	}
	out, err := w.run(context.Background(), options{seed: 1, tiny: true, pins: pins})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range out.ops {
		if _, ok := pins[op.Key]; !ok {
			t.Fatalf("operation %s is not pinned; rerun mcbench -pin", op.Key)
		}
	}
	corrupt := map[string]string{}
	for k, v := range pins {
		corrupt[k] = strings.Repeat("0", len(v))
	}
	bad, err := w.run(context.Background(), options{seed: 1, tiny: true, pins: corrupt})
	if err != nil {
		t.Fatal(err)
	}
	if bad.attempted == 0 || bad.failed != bad.attempted {
		t.Fatalf("failed_frac = %d/%d, want 1", bad.failed, bad.attempted)
	}
	if m, _ := bad.contractMetrics(); len(m) != len(endToEnd) {
		t.Fatalf("result line carries %d metrics, want %d", len(m), len(endToEnd))
	}
}

// TestNamesMatchBenchmarkJSON holds the program's workloads and metrics
// to the root BENCHMARK.json, and the file to the benchmark contract's
// limits.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	path := filepath.Join("..", "..", "BENCHMARK.json")
	bench, err := readBenchmark(path)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := raw[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
	}
	if len(raw) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want exactly 6", len(raw))
	}
	nameRe := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range workloads {
		got := bench.Workloads[i]
		if got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), program %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
		if !nameRe.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q breaks the name or why limits", w.name)
		}
	}
	if len(bench.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(bench.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		got := bench.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, program %+v", i, got, m)
		}
		if got.Bound <= 0 || got.Bound > 0.25 || !nameRe.MatchString(m.name) || !unitRe.MatchString(m.unit) {
			t.Errorf("end_to_end %q breaks the bound, name or unit limits", m.name)
		}
	}
	if len(bench.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(bench.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		got := bench.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, program %+v", i, got, m)
		}
		if !nameRe.MatchString(m.name) || !unitRe.MatchString(m.unit) {
			t.Errorf("per_layer %q breaks the name or unit limits", m.name)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(range(1, 11), n=4) = [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %g, %g; want 2.75, 8.25", q1, q3)
	}
}

// TestVerdict covers each branch of the comparison rule.
func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name string
		a, b []float64
		want string
	}{
		{"same", steady, steady, "unchanged"},
		{"slower beyond bound", steady, shift(1.2), "worse"},
		{"faster, every pair wins", steady, shift(0.9), "better"},
		{"spread wider than bound", steady, noisy, "unresolved"},
	} {
		if got := verdict(c.a, c.b, true, 0.1); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestLintAndFormat holds this module to the repository's mclint
// invariants and to gofmt, as the root module's lint test does for the
// rest of the tree.
func TestLintAndFormat(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type check; skipped in -short runs")
	}
	pkgs, err := lint.LoadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range lint.Run(pkgs, lint.Analyzers()) {
		t.Errorf("not lint-clean: %s", f)
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		want, err := format.Source(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if string(want) != string(src) {
			t.Errorf("%s is not gofmt-formatted", name)
		}
	}
}
