package repro

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/testbench"
)

var updateResults = flag.Bool("update", false, "rewrite testdata/results.txt from the current code")

// resultsPath is the pinned digest table of TestCampaignResultDigests.
const resultsPath = "testdata/results.txt"

// resultCase is one campaign at test size. Campaigns whose system
// follows Spec.Backend run once per backend; the rest build their own
// systems and run once.
type resultCase struct {
	params     any
	chunk      int
	perBackend bool
}

// resultCases holds one entry per registered campaign, sized so the
// whole table runs in a few seconds on the analytic backend.
var resultCases = map[string]resultCase{
	"fig1":       {params: testbench.Fig1Params{Shift: 0.10, Points: 64}, perBackend: true},
	"table1":     {params: testbench.Table1Params{}},
	"fig4":       {params: testbench.Fig4Params{Points: 9}},
	"fig4spice":  {params: testbench.Fig4SpiceParams{Cols: 3}},
	"fig4mc":     {params: testbench.Fig4MCParams{Monitor: 2, Dies: 6, Cols: 3}},
	"fig6":       {params: testbench.Fig6Params{Shift: 0.10, Grid: 21}, perBackend: true},
	"fig7":       {params: testbench.Fig7Params{Shift: 0.10, Points: 64}, perBackend: true},
	"fig8":       {params: testbench.Fig8Params{MaxDev: 0.20, Points: 5, Tol: 0.05}, perBackend: true},
	"noise":      {params: testbench.NoiseParams{Sigma: 0.005, Devs: []float64{0.01, 0.05}, NullTrials: 7, Trials: 4}, chunk: 3, perBackend: true},
	"noisesweep": {params: testbench.NoiseSweepParams{Sigmas: []float64{0.005, 0.02}, DevGrid: []float64{0.01, 0.05}, Trials: 3}, perBackend: true},
	"faults":     {params: testbench.FaultsParams{Tol: 0.05, Faults: testbench.DefaultFaultSet()[:3]}, perBackend: true},
	"yield":      {params: testbench.YieldParams{N: 12, ComponentSigma: 0.02, Tol: 0.05}, chunk: 5, perBackend: true},
	"selftest":   {params: testbench.SelfTestParams{Tol: 0.05}, perBackend: true},
	"corners":    {params: testbench.CornersParams{}, perBackend: true},
	"temp":       {params: testbench.TempParams{TempsK: []float64{273, 358}}, perBackend: true},
	"spectral":   {params: testbench.SpectralParams{TrainDevs: []float64{-0.10, -0.03, 0, 0.03, 0.10}, TestDevs: []float64{0.05}}, perBackend: true},
	"regress":    {params: testbench.RegressParams{TrainDevs: []float64{-0.10, -0.03, 0, 0.03, 0.10}, TestDevs: []float64{0.05}}, perBackend: true},
	"metric":     {params: testbench.MetricParams{Devs: []float64{-0.05, 0.05}}, perBackend: true},
	"counter":    {params: testbench.CounterParams{Shift: 0.10, Bits: []int{8}, Clocks: []float64{1e6}}, perBackend: true},
	"linear":     {params: testbench.LinearParams{Devs: []float64{-0.05, 0.05}}, perBackend: true},
	"q":          {params: testbench.QParams{Devs: []float64{-0.20, 0.20}}, perBackend: true},
	"stimopt":    {params: testbench.StimOptParams{Shift: 0.05, Grid: 2}, perBackend: true},
	"backends":   {params: testbench.BackendsParams{Shifts: []float64{0.05}}},
}

// TestCampaignResultDigests pins every campaign's result bits: the
// SHA-256 of the JSON payload of each registered campaign at test size,
// once per backend where the campaign takes one, against the table in
// testdata/results.txt. Any change to a result bit fails here, so a
// refactor that claims to move none is checked rather than asserted.
// `go test -run TestCampaignResultDigests -update .` rewrites the table;
// a rewrite is a change of results and needs a stated reason.
//
// The digests hold on amd64 only: arm64 fuses multiply-adds, which moves
// low-order bits. Every row runs under -short too, the SPICE-backed ones
// included: the whole table takes about a second (several under -race),
// so the race-tested CI pass checks every result bit.
func TestCampaignResultDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("result digests are pinned on amd64 only, not %s", runtime.GOARCH)
	}
	var keys []string
	for _, name := range testbench.Names() {
		c, ok := resultCases[name]
		if !ok {
			t.Errorf("campaign %q has no row in resultCases", name)
			continue
		}
		if !c.perBackend {
			keys = append(keys, name)
			continue
		}
		for _, backend := range core.Backends() {
			keys = append(keys, name+"/"+backend)
		}
	}
	for name := range resultCases {
		if !slices.Contains(testbench.Names(), name) {
			t.Errorf("resultCases names %q, which is not a registered campaign", name)
		}
	}
	sort.Strings(keys)

	got := map[string]string{}
	for _, key := range keys {
		name, backend, _ := strings.Cut(key, "/")
		t.Run(key, func(t *testing.T) {
			c := resultCases[name]
			res, err := testbench.Run(context.Background(), testbench.Spec{
				Campaign: name, Backend: backend, Seed: 7, Workers: 2, Chunk: c.chunk, Params: c.params,
			})
			if err != nil {
				t.Fatal(err)
			}
			raw, err := json.Marshal(res.Payload)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(raw)
			got[key] = hex.EncodeToString(sum[:])
		})
	}

	if *updateResults {
		if t.Failed() {
			t.Fatal("not rewriting the table: a row failed")
		}
		var b strings.Builder
		b.WriteString("# SHA-256 of json.Marshal(Result.Payload) per campaign at the sizes in\n")
		b.WriteString("# results_test.go, seed 7, on amd64. Regenerate with\n")
		b.WriteString("#   go test -run TestCampaignResultDigests -update .\n")
		b.WriteString("# only when a change means to move result bits, and say why in CHANGES.md.\n")
		for _, key := range keys {
			fmt.Fprintf(&b, "%s %s\n", key, got[key])
		}
		if err := os.WriteFile(resultsPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	want := readResults(t)
	for _, key := range keys {
		w, ok := want[key]
		if !ok {
			t.Errorf("%s: no row in %s (run with -update)", key, resultsPath)
			continue
		}
		delete(want, key)
		if g, ran := got[key]; ran && g != w {
			t.Errorf("%s: payload digest %s, pinned %s", key, g, w)
		}
	}
	for row := range want {
		t.Errorf("%s: %s has a row for a campaign that is not registered", row, resultsPath)
	}
}

// readResults parses testdata/results.txt into row -> digest.
func readResults(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(resultsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		row, digest, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", resultsPath, line)
		}
		rows[row] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}
