package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"repro/internal/testbench"
)

// digestsTxt pins the payload digest of every operation `mcbench -pin`
// ran: the first operations of each workload at seed 1, at full and at
// test size. Lines read "<workload> <op> <key> <sha256>".
//
//go:embed digests.txt
var digestsTxt string

// parseDigests reads the pinned table into key -> digest.
func parseDigests(s string) (map[string]string, error) {
	m := map[string]string{}
	for i, line := range strings.Split(s, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 4 {
			return nil, fmt.Errorf("digests.txt:%d: want 4 fields, got %d", i+1, len(f))
		}
		m[f[2]] = f[3]
	}
	return m, nil
}

// opKey identifies an operation by its workload and exact input bytes.
func opKey(workload string, input []byte) string {
	h := sha256.Sum256(append(append([]byte(workload), 0), input...))
	return hex.EncodeToString(h[:16])
}

// digest is the SHA-256 of a canonical payload.
func digest(payload []byte) string {
	h := sha256.Sum256(payload)
	return hex.EncodeToString(h[:])
}

// compactJSON is the canonical form payloads are compared and hashed in,
// so a payload read off an indented HTTP response equals the same
// payload marshalled in process.
func compactJSON(raw []byte) ([]byte, error) {
	var b bytes.Buffer
	if err := json.Compact(&b, raw); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// opRecord is one verified operation, kept for -pin and the result file.
type opRecord struct {
	Key    string `json:"key"`
	Digest string `json:"digest"`
}

// verify checks one operation's canonical payload: against its pinned
// digest when the table has one, and against the campaign's invariants
// always. trials is the trial count the spec asked for.
func verify(pins map[string]string, key, campaign string, trials int, payload []byte) error {
	if want, ok := pins[key]; ok && want != digest(payload) {
		return fmt.Errorf("payload digest %s, pinned %s", digest(payload)[:16], want[:min(16, len(want))])
	}
	switch campaign {
	case "yield":
		var y testbench.Yield
		if err := json.Unmarshal(payload, &y); err != nil {
			return err
		}
		return checkYield(&y, trials)
	case "noise":
		var n testbench.Noise
		if err := json.Unmarshal(payload, &n); err != nil {
			return err
		}
		return checkNoise(&n)
	case "fig4mc":
		var f testbench.Fig4MC
		if err := json.Unmarshal(payload, &f); err != nil {
			return err
		}
		return checkFig4MC(&f)
	}
	return fmt.Errorf("no invariants for campaign %q", campaign)
}

// within reports lo <= v <= hi for finite values.
func within(v, lo, hi float64) bool {
	return !math.IsNaN(v) && lo <= v && v <= hi
}

// checkYield enforces the yield payload's counting identities.
func checkYield(y *testbench.Yield, n int) error {
	switch {
	case y.N != n:
		return fmt.Errorf("yield: N = %d, spec asked for %d", y.N, n)
	case y.TrueGood < 0 || y.TrueGood > y.N || y.PassCount < 0 || y.PassCount > y.N:
		return fmt.Errorf("yield: counts out of range (good %d, pass %d of %d)", y.TrueGood, y.PassCount, y.N)
	case y.Escapes < 0 || y.Escapes > y.PassCount || y.Overkill < 0 || y.Overkill > y.TrueGood:
		return fmt.Errorf("yield: escapes %d / overkill %d inconsistent", y.Escapes, y.Overkill)
	case y.PassCount != y.TrueGood-y.Overkill+y.Escapes:
		return fmt.Errorf("yield: pass %d != good %d - overkill %d + escapes %d", y.PassCount, y.TrueGood, y.Overkill, y.Escapes)
	case !within(y.YieldRate(), y.YieldLo, y.YieldHi):
		return fmt.Errorf("yield: rate %g outside its interval [%g, %g]", y.YieldRate(), y.YieldLo, y.YieldHi)
	}
	return nil
}

// checkNoise enforces the noise payload's shape and the paper's claim at
// its largest deviation: a 5% shift is detected under 3σ = 15 mV noise.
func checkNoise(n *testbench.Noise) error {
	k := len(n.Devs)
	switch {
	case k == 0 || len(n.Detect) != k || len(n.DetectLo) != k || len(n.DetectHi) != k:
		return fmt.Errorf("noise: %d deviations but %d/%d/%d rates", k, len(n.Detect), len(n.DetectLo), len(n.DetectHi))
	case !(n.Threshold > 0) || !within(n.FalseRate, n.FalseLo, n.FalseHi):
		return fmt.Errorf("noise: threshold %g, false rate %g [%g, %g]", n.Threshold, n.FalseRate, n.FalseLo, n.FalseHi)
	}
	for i := range n.Devs {
		if !within(n.Detect[i], n.DetectLo[i], n.DetectHi[i]) || !within(n.Detect[i], 0, 1) {
			return fmt.Errorf("noise: detection %g outside [%g, %g]", n.Detect[i], n.DetectLo[i], n.DetectHi[i])
		}
	}
	if n.Detect[k-1] < 0.9 {
		return fmt.Errorf("noise: %.1f%% deviation detected at rate %g, want >= 0.9", 100*n.Devs[k-1], n.Detect[k-1])
	}
	return nil
}

// checkFig4MC enforces the envelope's shape: aligned columns with the
// 2.5% quantile below the 97.5% one.
func checkFig4MC(f *testbench.Fig4MC) error {
	m := len(f.Cols)
	if len(f.Xs) == 0 || m == 0 || len(f.Nominal) != m || len(f.P2_5) != m || len(f.P97_5) != m {
		return fmt.Errorf("fig4mc: %d columns, %d/%d/%d/%d envelope points", len(f.Xs), m, len(f.Nominal), len(f.P2_5), len(f.P97_5))
	}
	for i := range f.Cols {
		if !(f.P2_5[i] <= f.P97_5[i]) {
			return fmt.Errorf("fig4mc: column %d has P2.5 %g above P97.5 %g", i, f.P2_5[i], f.P97_5[i])
		}
	}
	return nil
}
