package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmark(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// samples maps workload -> end-to-end metric -> values in file order.
type samples map[string]map[string][]float64

// readResults collects the untraced result lines of the given files.
func readResults(paths []string) (samples, error) {
	s := samples{}
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
		for line := 1; sc.Scan(); line++ {
			var r result
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				_ = f.Close() // read-only; the decode error is the one to report
				return nil, fmt.Errorf("%s:%d: %w", path, line, err)
			}
			if r.Trace {
				continue
			}
			if s[r.Workload] == nil {
				s[r.Workload] = map[string][]float64{}
			}
			for _, k := range sortedKeys(r.EndToEnd) {
				s[r.Workload][k] = append(s[r.Workload][k], r.EndToEnd[k])
			}
		}
		err = sc.Err()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	return s, nil
}

// verdict judges side b against side a for one metric, by the rules the
// benchmark's bounds are set for: worse only beyond the bound;
// unresolved when either side's quartile spread exceeds the bound
// (unless every b run beats every a run); better only when b wins at
// least nine tenths of the index-paired runs and the medians differ by
// more than a's quartile spread; unchanged otherwise.
func verdict(a, b []float64, lowerIsBetter bool, bound float64) string {
	better := func(x, y float64) bool { // x better than y
		if lowerIsBetter {
			return x < y
		}
		return x > y
	}
	ma, mb := median(a), median(b)
	qa1, qa3 := quartiles(a)
	qb1, qb3 := quartiles(b)
	spreadA, spreadB := (qa3-qa1)/math.Abs(ma), (qb3-qb1)/math.Abs(mb)
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	rel := (mb - ma) / math.Abs(ma)
	if !lowerIsBetter {
		rel = -rel
	}
	switch {
	case spreadA > bound || spreadB > bound:
		if allBetter {
			return "better"
		}
		return "unresolved"
	case rel > bound:
		return "worse"
	}
	pairs, wins := min(len(a), len(b)), 0
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	if pairs > 0 && 10*wins >= 9*pairs && math.Abs(mb-ma) > qa3-qa1 {
		return "better"
	}
	return "unchanged"
}

// compare reads "A files -- B files" and prints, for every workload and
// end-to-end metric, each side's median and quartiles and the verdict
// on B against A, as a Markdown table.
func compare(benchPath string, args []string) error {
	split := -1
	for i, a := range args {
		if a == "--" {
			split = i
			break
		}
	}
	if split < 1 || split == len(args)-1 {
		return fmt.Errorf("-compare needs result files on both sides: -compare A... -- B...")
	}
	bench, err := readBenchmark(benchPath)
	if err != nil {
		return err
	}
	a, err := readResults(args[:split])
	if err != nil {
		return err
	}
	b, err := readResults(args[split+1:])
	if err != nil {
		return err
	}
	fmt.Println("| workload | metric | A median [q1, q3] | B median [q1, q3] | runs A/B | B vs A | spread A/B | bound | verdict |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|")
	for _, w := range bench.Workloads {
		for _, m := range bench.EndToEnd {
			xa, xb := a[w.Name][m.Name], b[w.Name][m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			qa1, qa3 := quartiles(xa)
			qb1, qb3 := quartiles(xb)
			fmt.Printf("| %s | %s | %.4g [%.4g, %.4g] | %.4g [%.4g, %.4g] | %d/%d | %+.1f%% | %.1f%%/%.1f%% | %g%% | %s |\n",
				w.Name, m.Name, ma, qa1, qa3, mb, qb1, qb3, len(xa), len(xb),
				100*(mb-ma)/math.Abs(ma), 100*(qa3-qa1)/math.Abs(ma), 100*(qb3-qb1)/math.Abs(mb), 100*m.Bound,
				verdict(xa, xb, m.Better == "lower", m.Bound))
		}
	}
	return nil
}
