package monitor

import (
	"math"

	"repro/internal/mos"
)

// Analytic is the design-equation model of the monitor: the boundary is
// the locus where the left-branch saturation current sum equals the
// right-branch sum,
//
//	I(M1,V1) + I(M2,V2) = I(M3,V3) + I(M4,V4),
//
// with I the EKV-smoothed square law of internal/mos. The differential
// load keeps both summing nodes near the same potential in the fabricated
// circuit, so ignoring V_DS effects here reproduces the published curve
// family; tests cross-check against the transistor-level Spice model.
//
// Every Table I row drives two of its inputs from DC biases, so the
// model stores those inputs' currents once and Balance evaluates IDSat
// only for the inputs x and y drive.
type Analytic struct {
	cfg  Config
	devs [4]mos.Device
	// dc[i] is IDSat of input i's bias when a DC source drives it.
	dc      [4]float64
	refSign int
}

// NewAnalytic builds the analytic monitor model from a configuration.
func NewAnalytic(cfg Config) (*Analytic, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newAnalytic(cfg, cfg.Devices()), nil
}

// newAnalytic builds the model on the given input devices: it stores the
// DC inputs' currents and derives the reference side from them.
func newAnalytic(cfg Config, devs [4]mos.Device) *Analytic {
	a := &Analytic{cfg: cfg, devs: devs}
	for i, in := range cfg.Inputs {
		if in.Kind == DriveDC {
			a.dc[i] = devs[i].IDSat(in.DC)
		}
	}
	a.refSign = signum(a.Balance(cfg.RefX, cfg.RefY))
	if a.refSign == 0 {
		// Reference sits exactly on the boundary; nudge deterministically.
		a.refSign = signum(a.Balance(cfg.RefX+1e-3, cfg.RefY))
		if a.refSign == 0 {
			a.refSign = 1
		}
	}
	return a
}

// MustAnalytic is NewAnalytic that panics on configuration errors; it is
// used with the known-good TableI configurations.
func MustAnalytic(cfg Config) *Analytic {
	a, err := NewAnalytic(cfg)
	if err != nil {
		panic(err)
	}
	return a
}

// Balance returns I_left − I_right at plane point (x, y). The zone
// boundary is Balance == 0. A DC input contributes its stored current,
// which is exactly IDSat of its bias, and the four currents are summed
// as (I0 + I1) − (I2 + I3), the order the zone LUT's node balances use.
func (a *Analytic) Balance(x, y float64) float64 {
	c := a.dc
	for i, in := range a.cfg.Inputs {
		switch in.Kind {
		case DriveX:
			c[i] = a.devs[i].IDSat(x)
		case DriveY:
			c[i] = a.devs[i].IDSat(y)
		}
	}
	return (c[0] + c[1]) - (c[2] + c[3])
}

// Bit implements Monitor.
func (a *Analytic) Bit(x, y float64) int {
	if signum(a.Balance(x, y)) == a.refSign {
		return 0
	}
	return 1
}

// Config implements Monitor.
func (a *Analytic) Config() Config { return a.cfg }

// WithDevices returns a copy of the monitor using the provided (e.g.
// Monte Carlo perturbed) input devices. The DC inputs' currents and the
// reference side are re-derived as NewAnalytic derives them, because
// variation can move the boundary.
func (a *Analytic) WithDevices(devs [4]mos.Device) *Analytic {
	return newAnalytic(a.cfg, devs)
}

// Devices returns the monitor's input devices.
func (a *Analytic) Devices() [4]mos.Device { return a.devs }

// Perturbed returns a copy of the monitor built on one Monte Carlo die:
// each of the four input devices gets the die's global shift plus its
// own mismatch draw, taken from the die's stream in device order.
func (a *Analytic) Perturbed(die *mos.Die) *Analytic {
	devs := a.devs
	for j := range devs {
		devs[j] = die.Perturb(devs[j])
	}
	return newAnalytic(a.cfg, devs)
}

func signum(v float64) int {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	default:
		return 0
	}
}

// BoundaryY solves the boundary crossing y for a fixed x by bisection on
// the balance function over [yLo, yHi]. ok is false when the boundary
// does not cross that segment.
func (a *Analytic) BoundaryY(x, yLo, yHi float64) (y float64, ok bool) {
	f := func(y float64) float64 { return a.Balance(x, y) }
	flo, fhi := f(yLo), f(yHi)
	if flo == 0 {
		return yLo, true
	}
	if fhi == 0 {
		return yHi, true
	}
	if (flo > 0) == (fhi > 0) {
		return 0, false
	}
	lo, hi := yLo, yHi
	for i := 0; i < 80; i++ {
		mid := 0.5 * (lo + hi)
		fm := f(mid)
		if fm == 0 || hi-lo < 1e-12 {
			return mid, true
		}
		if (fm > 0) == (flo > 0) {
			lo, flo = mid, fm
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi), true
}

// BoundaryX is BoundaryY with the roles of the axes exchanged (needed for
// near-horizontal curve segments).
func (a *Analytic) BoundaryX(y, xLo, xHi float64) (x float64, ok bool) {
	f := func(x float64) float64 { return a.Balance(x, y) }
	flo, fhi := f(xLo), f(xHi)
	if flo == 0 {
		return xLo, true
	}
	if fhi == 0 {
		return xHi, true
	}
	if (flo > 0) == (fhi > 0) {
		return 0, false
	}
	lo, hi := xLo, xHi
	for i := 0; i < 80; i++ {
		mid := 0.5 * (lo + hi)
		fm := f(mid)
		if fm == 0 || hi-lo < 1e-12 {
			return mid, true
		}
		if (fm > 0) == (flo > 0) {
			lo, flo = mid, fm
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi), true
}

// Point is a location in the monitored X-Y plane.
type Point struct{ X, Y float64 }

// TraceBoundary samples the monitor's zone boundary inside the square
// [lo,hi]² by scanning x columns and, for curve segments that run nearly
// vertical, y rows. Points are deduplicated to a resolution of eps.
func (a *Analytic) TraceBoundary(lo, hi float64, n int) []Point {
	if n < 2 {
		n = 2
	}
	var pts []Point
	step := (hi - lo) / float64(n-1)
	for i := 0; i < n; i++ {
		x := lo + float64(i)*step
		if y, ok := a.BoundaryY(x, lo, hi); ok {
			pts = append(pts, Point{x, y})
		}
	}
	for i := 0; i < n; i++ {
		y := lo + float64(i)*step
		if x, ok := a.BoundaryX(y, lo, hi); ok {
			pts = append(pts, Point{x, y})
		}
	}
	return dedupe(pts, step/4)
}

func dedupe(pts []Point, eps float64) []Point {
	var out []Point
	for _, p := range pts {
		dup := false
		for _, q := range out {
			if math.Abs(p.X-q.X) < eps && math.Abs(p.Y-q.Y) < eps {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, p)
		}
	}
	return out
}
