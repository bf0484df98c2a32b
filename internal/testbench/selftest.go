package testbench

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/ndf"
)

// SelfTest is the monitor-BIST experiment: inject stuck-at faults into
// each of the six monitor outputs and measure the NDF a *golden* CUT
// produces through the broken bank. A healthy deployment reads ~0; a
// stuck monitor shows up as a large spurious discrepancy, so the same
// golden-signature comparison that screens CUTs also screens the test
// hardware itself.
type SelfTest struct {
	// NDFs[mi][v] is the golden-CUT NDF with monitor mi stuck at v.
	NDFs      [][2]float64
	Detected  int // faults with NDF above threshold
	Total     int
	Threshold float64
}

// runSelfTest evaluates all stuck-at faults against the decision
// (registry campaign "selftest").
func runSelfTest(ctx context.Context, sys *core.System, dec ndf.Decision) (*SelfTest, error) {
	golden, err := sys.GoldenSignature()
	if err != nil {
		return nil, err
	}
	out := &SelfTest{Threshold: dec.Threshold}
	for mi := 0; mi < sys.Bank.Size(); mi++ {
		var pair [2]float64
		for v := 0; v <= 1; v++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			bank, err := sys.Bank.WithStuckMonitor(mi, v)
			if err != nil {
				return nil, err
			}
			broken, err := derive(sys, sys.Stimulus, bank, sys.Capture)
			if err != nil {
				return nil, err
			}
			obs, err := broken.ExactSignature(sys.CUT)
			if err != nil {
				return nil, err
			}
			val, err := ndf.NDF(obs, golden)
			if err != nil {
				return nil, err
			}
			pair[v] = val
			out.Total++
			if !dec.Pass(val) {
				out.Detected++
			}
		}
		out.NDFs = append(out.NDFs, pair)
	}
	return out, nil
}

// Coverage returns the detected fraction of stuck-at faults.
func (s *SelfTest) Coverage() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.Detected) / float64(s.Total)
}

// Render prints the per-monitor table.
func (s *SelfTest) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "monitor self-test: golden-CUT NDF with stuck outputs (threshold %.4f)\n", s.Threshold)
	b.WriteString("monitor  stuck@0   stuck@1\n")
	for i, pair := range s.NDFs {
		fmt.Fprintf(&b, "%-8d %.4f    %.4f\n", i+1, pair[0], pair[1])
	}
	fmt.Fprintf(&b, "detected %d/%d stuck-at faults (%.0f%%)\n", s.Detected, s.Total, 100*s.Coverage())
	return b.String()
}
