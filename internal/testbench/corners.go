package testbench

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/mos"
	"repro/internal/ndf"
)

// CornerDrift is the process-corner companion of TempDrift: the monitor
// bank is moved to each foundry sign-off corner while the golden
// signature stays characterized at TT, and the spurious NDF of a golden
// CUT measures how much boundary motion each corner causes. (Monitor
// input devices are all nMOS, so SF equals SS and FS equals FF for the
// zone boundaries; the full five-corner table documents that.)
type CornerDrift struct {
	Corners []mos.Corner
	NDFs    []float64
}

// runCornerDrift evaluates all five corners (registry campaign
// "corners").
func runCornerDrift(ctx context.Context, sys *core.System) (*CornerDrift, error) {
	golden, err := sys.GoldenSignature()
	if err != nil {
		return nil, err
	}
	out := &CornerDrift{}
	for _, c := range mos.Corners() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		bank, err := bankAtCorner(c)
		if err != nil {
			return nil, err
		}
		cSys, err := derive(sys, sys.Stimulus, bank, sys.Capture)
		if err != nil {
			return nil, err
		}
		obs, err := cSys.ExactSignature(sys.CUT)
		if err != nil {
			return nil, err
		}
		v, err := ndf.NDF(obs, golden)
		if err != nil {
			return nil, err
		}
		out.Corners = append(out.Corners, c)
		out.NDFs = append(out.NDFs, v)
	}
	return out, nil
}

func bankAtCorner(c mos.Corner) (*monitor.Bank, error) {
	cfgs := monitor.TableI()
	ms := make([]monitor.Monitor, len(cfgs))
	for i, cfg := range cfgs {
		a, err := monitor.NewAnalytic(cfg)
		if err != nil {
			return nil, err
		}
		devs := a.Devices()
		for j := range devs {
			devs[j].P = devs[j].P.AtCorner(c)
		}
		ms[i] = a.WithDevices(devs)
	}
	return monitor.NewBank(ms...), nil
}

// Render prints the corner table.
func (cd *CornerDrift) Render() string {
	var b strings.Builder
	b.WriteString("process-corner drift (golden CUT, golden characterized at TT)\n")
	b.WriteString("corner  spurious NDF\n")
	for i := range cd.Corners {
		fmt.Fprintf(&b, "%-6s  %.4f\n", cd.Corners[i], cd.NDFs[i])
	}
	return b.String()
}
