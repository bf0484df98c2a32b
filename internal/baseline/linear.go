// Package baseline implements the comparison methods the paper positions
// itself against:
//
//   - straight-line X-Y zoning (refs [12][13]): boundaries implemented
//     with weighted adders and comparators instead of the nonlinear
//     current-balance monitor;
//   - alternate test by regression (refs [10][11]): mapping
//     easy-to-measure signature features to the circuit parameter.
//
// These let the benchmarks quantify what the nonlinear zoning buys.
package baseline

import (
	"fmt"
	"math"

	"repro/internal/monitor"
)

// Line is a straight boundary n_x·x + n_y·y = c in the monitored plane,
// realized in hardware as a weighted adder driving a comparator.
type Line struct {
	Nx, Ny, C float64
}

// Eval returns the signed distance-like residual n·p − c.
func (l Line) Eval(x, y float64) float64 { return l.Nx*x + l.Ny*y - l.C }

// LinearMonitor is a one-bit zone monitor with a straight boundary,
// implementing the same Monitor interface as the nonlinear design so the
// two zoning styles are interchangeable in the signature pipeline.
type LinearMonitor struct {
	line    Line
	cfg     monitor.Config
	refSign int
}

// NewLinearMonitor builds a linear monitor with the reference ("origin")
// side taken from cfg.RefX/RefY, like the nonlinear design.
func NewLinearMonitor(line Line, cfg monitor.Config) (*LinearMonitor, error) {
	if line.Nx == 0 && line.Ny == 0 {
		return nil, fmt.Errorf("baseline: degenerate line")
	}
	m := &LinearMonitor{line: line, cfg: cfg}
	s := sign(line.Eval(cfg.RefX, cfg.RefY))
	if s == 0 {
		s = sign(line.Eval(cfg.RefX+1e-3, cfg.RefY))
		if s == 0 {
			s = 1
		}
	}
	m.refSign = s
	return m, nil
}

func sign(v float64) int {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	default:
		return 0
	}
}

// Bit implements monitor.Monitor.
func (m *LinearMonitor) Bit(x, y float64) int {
	if sign(m.line.Eval(x, y)) == m.refSign {
		return 0
	}
	return 1
}

// Config implements monitor.Monitor (the configuration of the nonlinear
// monitor this line approximates, kept for reporting).
func (m *LinearMonitor) Config() monitor.Config { return m.cfg }

// FitLineToBoundary approximates a nonlinear monitor's boundary with a
// straight line by total least squares over traced boundary points —
// how a designer following refs [12][13] would place the partition.
func FitLineToBoundary(a *monitor.Analytic, n int) (Line, error) {
	pts := a.TraceBoundary(0, 1, n)
	if len(pts) < 2 {
		return Line{}, fmt.Errorf("baseline: monitor %s boundary has %d points, need >= 2",
			a.Config().Name, len(pts))
	}
	// Total least squares: the line through the centroid along the
	// principal component of the point cloud.
	var mx, my float64
	for _, p := range pts {
		mx += p.X
		my += p.Y
	}
	mx /= float64(len(pts))
	my /= float64(len(pts))
	var sxx, sxy, syy float64
	for _, p := range pts {
		dx, dy := p.X-mx, p.Y-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	// Normal direction = eigenvector of the smaller eigenvalue of the
	// 2x2 scatter matrix.
	tr := sxx + syy
	det := sxx*syy - sxy*sxy
	lam := tr/2 - math.Sqrt(tr*tr/4-det) // smaller eigenvalue
	var nx, ny float64
	if math.Abs(sxy) > 1e-18 {
		nx, ny = lam-syy, sxy
	} else if sxx < syy {
		nx, ny = 1, 0
	} else {
		nx, ny = 0, 1
	}
	norm := math.Hypot(nx, ny)
	nx, ny = nx/norm, ny/norm
	return Line{Nx: nx, Ny: ny, C: nx*mx + ny*my}, nil
}

// NewLinearTableI builds the straight-line approximation of the paper's
// six-monitor bank: each nonlinear boundary is replaced by its total
// least squares line. This is the refs [12][13] baseline bank.
func NewLinearTableI() (*monitor.Bank, error) {
	cfgs := monitor.TableI()
	ms := make([]monitor.Monitor, len(cfgs))
	for i, cfg := range cfgs {
		a := monitor.MustAnalytic(cfg)
		line, err := FitLineToBoundary(a, 60)
		if err != nil {
			return nil, err
		}
		lm, err := NewLinearMonitor(line, cfg)
		if err != nil {
			return nil, err
		}
		ms[i] = lm
	}
	return monitor.NewBank(ms...), nil
}

// LinearMonitorAreaUm2 is the documentation-grade cost of one
// straight-line monitor from refs [12][13]: a two-input weighted adder
// (resistive network plus buffer) and a comparator. Published zoning
// monitors of that generation occupy several times the current-comparator
// core; we carry 3× the nonlinear core as the accounting constant used by
// the hardware-cost ablation.
const LinearMonitorAreaUm2 = 3 * monitor.RefCoreAreaUm2
