// Command benchdiff compares two benchmark snapshots in `go test -json`
// event form (the files `make bench-json` emits: BENCH_4.json,
// BENCH_5.json, ...) and reports the per-benchmark ns/op movement — a
// dependency-free, benchstat-style regression gate for the CI pipeline.
//
// Benchmarks matching -pin are the performance contract: if any of them
// regresses by more than -max (a ratio; 1.30 = +30%), benchdiff exits
// non-zero. Everything else is reported for trend-watching but never
// fails the run — single-iteration snapshots are noisy, so only the
// hot-path pins with deliberate headroom gate.
//
//	benchdiff -old BENCH_4.json -new BENCH_5.json
//	benchdiff -old BENCH_4.json -new BENCH_5.json -pin 'Transient|Reduce' -max 1.5
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// defaultPins are the hot-path benchmarks the repository treats as a
// performance contract: the SPICE linear fast path, the per-trial SPICE
// campaign unit and its template trial engine, the batched
// signature engine, the streaming reduction engine, the streaming
// statistics (quantile-sketch push and the streamed null calibration),
// the span reduction checkpointing at the fabric's default cadence, and
// the zone LUT (certification of a fresh bank, batch classification of
// random and of curve points).
const defaultPins = "TransientTowThomasLinear$|SpiceCUTOutput$|SpiceTrialEngine$|FaultTableSpice$|SignatureCaptureBatched$|AveragedNDFBatched$|CampaignReduce1M$|BankClassifyBatch$|BankClassifyBatchCurve$|ZoneLUTBuild$|QuantileSketchPush$|NoiseNullCalibration$|CheckpointOverhead/default$"

func main() {
	var (
		oldPath = flag.String("old", "BENCH_4.json", "baseline snapshot (go test -json)")
		newPath = flag.String("new", "BENCH_5.json", "candidate snapshot (go test -json)")
		pin     = flag.String("pin", defaultPins, "regexp of pinned benchmarks that gate the exit status")
		max     = flag.Float64("max", 1.30, "maximum allowed new/old ns-per-op ratio for pinned benchmarks")
	)
	flag.Parse()
	pinRe, err := regexp.Compile(*pin)
	if err != nil {
		fatal(err)
	}
	oldNs, err := parseSnapshot(*oldPath)
	if err != nil {
		fatal(err)
	}
	newNs, err := parseSnapshot(*newPath)
	if err != nil {
		fatal(err)
	}
	names := make([]string, 0, len(newNs))
	for name := range newNs {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-34s %14s %14s %8s\n", "benchmark", "old ns/op", "new ns/op", "ratio")
	failed := 0
	for _, name := range names {
		nv := newNs[name]
		ov, ok := oldNs[name]
		if !ok {
			fmt.Printf("%-34s %14s %14.0f %8s\n", name, "-", nv, "new")
			continue
		}
		ratio := nv / ov
		mark := ""
		if pinRe.MatchString("Benchmark" + name) {
			mark = " [pinned]"
			if ratio > *max {
				mark = " [REGRESSED]"
				failed++
			}
		}
		fmt.Printf("%-34s %14.0f %14.0f %7.2fx%s\n", name, ov, nv, ratio, mark)
	}
	gone := make([]string, 0, len(oldNs))
	for name := range oldNs {
		if _, ok := newNs[name]; !ok {
			gone = append(gone, name)
		}
	}
	sort.Strings(gone)
	for _, name := range gone {
		fmt.Printf("%-34s %14.0f %14s %8s\n", name, oldNs[name], "-", "gone")
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d pinned benchmark(s) regressed more than %.0f%%\n",
			failed, (*max-1)*100)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(2)
}

// parseSnapshot extracts ns/op per benchmark from a `go test -json`
// stream. test2json splits a benchmark's result line across several
// output events (the padded name and the measurements arrive
// separately), so output is reassembled per test before line parsing.
// When a benchmark appears several times (rerun snapshots), the minimum
// is kept — the least-noise estimate, as benchstat does for
// single-value columns.
func parseSnapshot(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }() // read-only; scanner errors surface below
	buffers := map[string]*strings.Builder{}
	order := []string{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var ev struct {
			Action  string `json:"Action"`
			Package string `json:"Package"`
			Test    string `json:"Test"`
			Output  string `json:"Output"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			continue // tolerate stray non-JSON lines
		}
		if ev.Action != "output" {
			continue
		}
		key := ev.Package + "/" + ev.Test
		b, ok := buffers[key]
		if !ok {
			b = &strings.Builder{}
			buffers[key] = b
			order = append(order, key)
		}
		b.WriteString(ev.Output)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]float64{}
	for _, key := range order {
		for _, line := range strings.Split(buffers[key].String(), "\n") {
			name, ns, ok := parseBenchLine(line)
			if !ok {
				continue
			}
			if prev, seen := out[name]; !seen || ns < prev {
				out[name] = ns
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no benchmark result lines found", path)
	}
	return out, nil
}

// parseBenchLine recognizes "BenchmarkName[-procs] <tab> N <tab> ns/op
// ..." result lines and returns the bare name (procs suffix stripped)
// and the ns/op value.
func parseBenchLine(line string) (name string, ns float64, ok bool) {
	line = strings.TrimSuffix(line, "\n")
	if !strings.HasPrefix(line, "Benchmark") || !strings.Contains(line, "ns/op") {
		return "", 0, false
	}
	fields := strings.Fields(line)
	// name, iterations, value, "ns/op", [metric pairs...]
	if len(fields) < 4 {
		return "", 0, false
	}
	name = strings.TrimPrefix(fields[0], "Benchmark")
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	for i := 2; i+1 < len(fields); i++ {
		if fields[i+1] == "ns/op" {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return "", 0, false
			}
			return name, v, true
		}
	}
	return "", 0, false
}
