package testbench

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/campaign"
	"repro/internal/monitor"
	"repro/internal/mos"
	"repro/internal/stat"
)

// Fig4MC is the Monte Carlo envelope study backing the paper's statement
// that measured boundaries "lie in the predicted range for Monte Carlo
// simulations" of the 65 nm process.
type Fig4MC struct {
	MonitorName string
	Xs          []float64
	Nominal     []float64 // nominal boundary y per column (NaN-free: missing columns skipped)
	P2_5        []float64
	P97_5       []float64
	Cols        []int // indices into Xs that had MC crossings
}

// runFig4MC builds the envelope for Table I monitor index mi (0-based),
// fanning the dies out across the campaign pool (registry campaign
// "fig4mc"); the envelope is bit-identical at any worker count.
// Fig4MCParams.Validate bounds mi, nDies and nCols.
func runFig4MC(ctx context.Context, mi, nDies, nCols int, seed uint64, eng campaign.Engine) (*Fig4MC, error) {
	cfgs := monitor.TableI()
	bank := monitor.NewAnalyticTableI()
	xs, ys, err := bank.MCEnvelopeCtx(ctx, mi, mos.Default65nmVariation(), seed, nDies, nCols, eng)
	if err != nil {
		return nil, err
	}
	nominal := monitor.MustAnalytic(cfgs[mi])
	out := &Fig4MC{MonitorName: cfgs[mi].Name}
	for i, x := range xs {
		// Require most dies to cross this column; partial columns sit at
		// curve endpoints where the envelope is ill-defined.
		if len(ys[i]) < nDies*3/4 {
			continue
		}
		ny, ok := nominal.BoundaryY(x, 0, 1)
		if !ok {
			continue
		}
		out.Xs = append(out.Xs, x)
		out.Nominal = append(out.Nominal, ny)
		out.P2_5 = append(out.P2_5, stat.Quantile(ys[i], 0.025))
		out.P97_5 = append(out.P97_5, stat.Quantile(ys[i], 0.975))
		out.Cols = append(out.Cols, i)
	}
	if len(out.Xs) == 0 {
		return nil, fmt.Errorf("testbench: monitor %s produced no MC envelope columns", cfgs[mi].Name)
	}
	return out, nil
}

// NominalInsideEnvelope reports the fraction of columns where the
// nominal boundary lies within the MC envelope (should be ~1).
func (f *Fig4MC) NominalInsideEnvelope() float64 {
	in := 0
	for i := range f.Xs {
		if f.Nominal[i] >= f.P2_5[i]-1e-12 && f.Nominal[i] <= f.P97_5[i]+1e-12 {
			in++
		}
	}
	return float64(in) / float64(len(f.Xs))
}

// Render prints the envelope table.
func (f *Fig4MC) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Monte Carlo boundary envelope, monitor %s (95%% band)\n", f.MonitorName)
	b.WriteString("x       p2.5     nominal  p97.5\n")
	for i := range f.Xs {
		fmt.Fprintf(&b, "%.3f   %.4f   %.4f   %.4f\n", f.Xs[i], f.P2_5[i], f.Nominal[i], f.P97_5[i])
	}
	fmt.Fprintf(&b, "nominal inside envelope: %.0f%% of columns\n", 100*f.NominalInsideEnvelope())
	return b.String()
}

// CSV renders "x,p2.5,nominal,p97.5".
func (f *Fig4MC) CSV() string {
	var b strings.Builder
	b.WriteString("x,p2_5,nominal,p97_5\n")
	for i := range f.Xs {
		fmt.Fprintf(&b, "%.6f,%.6f,%.6f,%.6f\n", f.Xs[i], f.P2_5[i], f.Nominal[i], f.P97_5[i])
	}
	return b.String()
}
