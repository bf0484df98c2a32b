// Package testbench contains the experiment drivers that regenerate
// every table and figure of the paper's evaluation, plus the ablations
// and extensions the campaign registry lists (`go run ./cmd/mcmon
// -list`). Each driver returns a plain data struct with
// a text rendering so the cmd tools, the examples, and the benchmark
// harness all share one implementation.
package testbench

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/lissajous"
	"repro/internal/monitor"
	"repro/internal/ndf"
	"repro/internal/signature"
	"repro/internal/wave"
)

// derive builds a system on sys's CUT with another stimulus, bank or
// capture, carrying over the Observe and ScanN that NewSystem resets.
func derive(sys *core.System, stim *wave.Multitone, bank *monitor.Bank, capture signature.CaptureConfig) (*core.System, error) {
	d, err := core.NewSystem(stim, sys.CUT, bank, capture)
	if err == nil {
		d.Observe, d.ScanN = sys.Observe, sys.ScanN
	}
	return d, err
}

// Fig1 holds the golden and deviated Lissajous traces of Fig. 1.
type Fig1 struct {
	Shift     float64
	Golden    []lissajous.Point
	Defective []lissajous.Point
}

// runFig1 samples both curves with n points per period (registry
// campaign "fig1").
func runFig1(sys *core.System, shift float64, n int) (*Fig1, error) {
	g, err := sys.Lissajous(sys.CUT)
	if err != nil {
		return nil, err
	}
	dev, err := sys.Shifted(shift)
	if err != nil {
		return nil, err
	}
	d, err := sys.Lissajous(dev)
	if err != nil {
		return nil, err
	}
	gp, err := g.Sample(n)
	if err != nil {
		return nil, err
	}
	dp, err := d.Sample(n)
	if err != nil {
		return nil, err
	}
	return &Fig1{Shift: shift, Golden: gp, Defective: dp}, nil
}

// CSV renders the traces as "t_index,golden_x,golden_y,def_x,def_y".
func (f *Fig1) CSV() string {
	var b strings.Builder
	b.WriteString("i,golden_x,golden_y,defective_x,defective_y\n")
	for i := range f.Golden {
		fmt.Fprintf(&b, "%d,%.6f,%.6f,%.6f,%.6f\n",
			i, f.Golden[i].X, f.Golden[i].Y, f.Defective[i].X, f.Defective[i].Y)
	}
	return b.String()
}

// Table1 reproduces TABLE I (input configuration of the six curves).
type Table1 struct {
	Configs []monitor.Config
}

// Render formats the table like the paper.
func (t *Table1) Render() string {
	var b strings.Builder
	b.WriteString("    M1    M2    M3    M4    V1       V2       V3       V4\n")
	for i, c := range t.Configs {
		fmt.Fprintf(&b, "%d   %-5g %-5g %-5g %-5g", i+1,
			c.WidthsNm[0], c.WidthsNm[1], c.WidthsNm[2], c.WidthsNm[3])
		for _, in := range c.Inputs {
			switch in.Kind {
			case monitor.DriveX:
				fmt.Fprintf(&b, " %-8s", "X axis")
			case monitor.DriveY:
				fmt.Fprintf(&b, " %-8s", "Y axis")
			default:
				fmt.Fprintf(&b, " %-8.2f", in.DC)
			}
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "(widths in nm, L = %g nm)\n", t.Configs[0].LengthNm)
	return b.String()
}

// Fig4 holds the six traced control curves, optionally with Monte Carlo
// envelopes (per-column quantiles of the boundary position).
type Fig4 struct {
	Names  []string
	Curves [][]monitor.Point
	// Envelopes[i] is nil without MC; otherwise rows of (x, p2.5, p97.5).
	Envelopes [][][3]float64
}

// runFig4 traces every Table I boundary at the given resolution
// (registry campaign "fig4").
func runFig4(ctx context.Context, n int) (*Fig4, error) {
	out := &Fig4{}
	for _, cfg := range monitor.TableI() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		a, err := monitor.NewAnalytic(cfg)
		if err != nil {
			return nil, err
		}
		out.Names = append(out.Names, cfg.Name)
		out.Curves = append(out.Curves, a.TraceBoundary(0, 1, n))
		out.Envelopes = append(out.Envelopes, nil)
	}
	return out, nil
}

// CSV renders the curves as "curve,x,y" rows.
func (f *Fig4) CSV() string {
	var b strings.Builder
	b.WriteString("curve,x,y\n")
	for i, pts := range f.Curves {
		for _, p := range pts {
			fmt.Fprintf(&b, "%s,%.6f,%.6f\n", f.Names[i], p.X, p.Y)
		}
	}
	return b.String()
}

// runFig4Spice traces every Table I boundary from the transistor-level
// Fig. 2 netlist (binary search on the digitized output of MNA DC
// solves) — the software counterpart of the paper's bench measurement.
// Columns without a bit transition are skipped (registry campaign
// "fig4spice").
func runFig4Spice(ctx context.Context, nCols int) (*Fig4, error) {
	out := &Fig4{}
	for _, cfg := range monitor.TableI() {
		sm, err := monitor.NewSpice(cfg, nil)
		if err != nil {
			return nil, err
		}
		var pts []monitor.Point
		for i := 0; i < nCols; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			v := float64(i) / float64(nCols-1)
			if y, ok := sm.BoundaryY(v, 0, 1); ok {
				pts = append(pts, monitor.Point{X: v, Y: y})
			}
			if x, ok := sm.BoundaryX(v, 0, 1); ok {
				pts = append(pts, monitor.Point{X: x, Y: v})
			}
		}
		out.Names = append(out.Names, cfg.Name+"-spice")
		out.Curves = append(out.Curves, pts)
		out.Envelopes = append(out.Envelopes, nil)
	}
	return out, nil
}

// Fig8 is the NDF-vs-deviation acceptance curve.
type Fig8 struct {
	Devs      []float64
	NDFs      []float64
	Tolerance float64
	Threshold float64
}

// runFig8 sweeps deviations over ±maxDev with the given number of points
// (odd counts include 0) and calibrates the PASS/FAIL threshold at the
// tolerance edges (registry campaign "fig8").
func runFig8(ctx context.Context, sys *core.System, maxDev float64, points int, tol float64, eng campaign.Engine) (*Fig8, error) {
	devs := make([]float64, points)
	for i := range devs {
		devs[i] = -maxDev + 2*maxDev*float64(i)/float64(points-1)
	}
	ndfs, err := sys.SweepF0Ctx(ctx, devs, eng)
	if err != nil {
		return nil, err
	}
	dec, err := ndf.CalibrateThreshold(devs, ndfs, tol)
	if err != nil {
		return nil, err
	}
	return &Fig8{Devs: devs, NDFs: ndfs, Tolerance: tol, Threshold: dec.Threshold}, nil
}

// Render prints the sweep with PASS/FAIL bands, Fig. 8 style.
func (f *Fig8) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "NDF vs f0 deviation (tolerance ±%.0f%%, threshold %.4f)\n",
		f.Tolerance*100, f.Threshold)
	b.WriteString("dev%    NDF      band\n")
	for i := range f.Devs {
		band := "PASS"
		if f.NDFs[i] > f.Threshold {
			band = "FAIL"
		}
		fmt.Fprintf(&b, "%+5.1f  %.4f   %s\n", f.Devs[i]*100, f.NDFs[i], band)
	}
	return b.String()
}

// CSV renders "dev,ndf,pass".
func (f *Fig8) CSV() string {
	var b strings.Builder
	b.WriteString("dev,ndf,pass\n")
	for i := range f.Devs {
		pass := 1
		if f.NDFs[i] > f.Threshold {
			pass = 0
		}
		fmt.Fprintf(&b, "%.4f,%.6f,%d\n", f.Devs[i], f.NDFs[i], pass)
	}
	return b.String()
}
