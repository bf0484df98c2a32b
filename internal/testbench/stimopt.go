package testbench

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/wave"
)

// StimOpt is the stimulus optimization study: the paper's predecessors
// "previously studied [Lissajous curves] to select the best X-Y
// partitions"; the dual problem is selecting the stimulus that, for a
// fixed partition, maximizes the NDF response to the target deviation.
// A coordinate search over the harmonic phases reshapes the Lissajous
// trace so it crosses more boundaries near its defect-sensitive regions.
type StimOpt struct {
	Shift      float64 // deviation the sensitivity is optimized for
	BasePhases []float64
	BestPhases []float64
	BaseNDF    float64
	BestNDF    float64
}

// runStimOpt greedily searches the phases of the 2nd and 3rd harmonics
// over a gridN×gridN grid in [0, 2π) (registry campaign "stimopt").
func runStimOpt(ctx context.Context, sys *core.System, shift float64, gridN int) (*StimOpt, error) {
	base := sys.Stimulus
	basePhases := make([]float64, len(base.Tones))
	amps := make([]float64, len(base.Tones))
	harmonics := make([]int, len(base.Tones))
	f0 := 1 / base.Period()
	for i, t := range base.Tones {
		basePhases[i] = t.Phase
		amps[i] = t.Amp
		harmonics[i] = int(math.Round(t.Freq / f0))
	}
	eval := func(phases []float64) (float64, error) {
		stim, err := wave.NewMultitone(base.Offset, f0, harmonics, amps, phases)
		if err != nil {
			return 0, err
		}
		trial, err := derive(sys, stim, sys.Bank, sys.Capture)
		if err != nil {
			return 0, err
		}
		return trial.NDFOfShift(shift)
	}
	baseNDF, err := eval(basePhases)
	if err != nil {
		return nil, err
	}
	out := &StimOpt{
		Shift:      shift,
		BasePhases: basePhases,
		BestPhases: append([]float64(nil), basePhases...),
		BaseNDF:    baseNDF,
		BestNDF:    baseNDF,
	}
	if len(basePhases) < 3 {
		return out, nil // nothing to search
	}
	for i := 0; i < gridN; i++ {
		p2 := 2 * math.Pi * float64(i) / float64(gridN)
		for j := 0; j < gridN; j++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			p3 := 2 * math.Pi * float64(j) / float64(gridN)
			trial := append([]float64(nil), basePhases...)
			trial[1], trial[2] = p2, p3
			v, err := eval(trial)
			if err != nil {
				return nil, err
			}
			if v > out.BestNDF {
				out.BestNDF = v
				out.BestPhases = trial
			}
		}
	}
	return out, nil
}

// Render prints the optimization outcome.
func (s *StimOpt) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "stimulus phase optimization at %+.0f%% f0 shift\n", s.Shift*100)
	fmt.Fprintf(&b, "  base phases %v -> NDF %.4f\n", fmtPhases(s.BasePhases), s.BaseNDF)
	fmt.Fprintf(&b, "  best phases %v -> NDF %.4f (%.0f%% gain)\n",
		fmtPhases(s.BestPhases), s.BestNDF, 100*(s.BestNDF/s.BaseNDF-1))
	return b.String()
}

func fmtPhases(p []float64) string {
	parts := make([]string, len(p))
	for i, v := range p {
		parts[i] = fmt.Sprintf("%.2f", v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
