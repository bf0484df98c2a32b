// Package lissajous composes two circuit signals into the X-Y plane
// trace the monitor observes — the oscilloscope-in-X-Y-mode picture of
// Section II. For rational frequency ratios the composition is periodic
// and the package computes the common period, samples the closed curve,
// and measures basic geometry used by tests and figures.
package lissajous

import (
	"fmt"
	"math"

	"repro/internal/wave"
)

// Curve is the composition (x(t), y(t)) of two waveforms.
type Curve struct {
	X, Y wave.Waveform
}

// New builds a curve and computes its common period. An error is
// returned when either waveform is aperiodic or when no small rational
// relation exists between the two periods (maximum denominator 64).
func New(x, y wave.Waveform) (Curve, error) {
	c := Curve{X: x, Y: y}
	if _, err := c.CommonPeriod(); err != nil {
		return Curve{}, err
	}
	return c, nil
}

// Eval returns the plane point at time t.
func (c Curve) Eval(t float64) (x, y float64) {
	return c.X.Eval(t), c.Y.Eval(t)
}

// CommonPeriod returns the smallest T that is an integer multiple of
// both waveform periods (within 1e-9 relative tolerance).
func (c Curve) CommonPeriod() (float64, error) {
	px, py := c.X.Period(), c.Y.Period()
	if px <= 0 || py <= 0 {
		return 0, fmt.Errorf("lissajous: both signals must be periodic (got %g, %g)", px, py)
	}
	if approxEq(px, py) {
		return math.Max(px, py), nil
	}
	// Find small m, n with m·px == n·py.
	for n := 1; n <= 64; n++ {
		m := float64(n) * py / px
		mr := math.Round(m)
		if mr >= 1 && math.Abs(m-mr) < 1e-9*m {
			return float64(n) * py, nil
		}
	}
	return 0, fmt.Errorf("lissajous: periods %g and %g have no small rational ratio", px, py)
}

func approxEq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
}

// Point is a sampled plane location.
type Point struct{ X, Y float64 }

// Sample returns n points uniformly spaced in time over one common
// period (closed curve: the final point returns near the first).
func (c Curve) Sample(n int) ([]Point, error) {
	if n < 2 {
		return nil, fmt.Errorf("lissajous: need at least 2 samples")
	}
	T, err := c.CommonPeriod()
	if err != nil {
		return nil, err
	}
	pts := make([]Point, n)
	for i := range pts {
		t := T * float64(i) / float64(n)
		x, y := c.Eval(t)
		pts[i] = Point{x, y}
	}
	return pts, nil
}

// BoundingBox returns the extremes of the curve from n samples.
func (c Curve) BoundingBox(n int) (minX, maxX, minY, maxY float64, err error) {
	pts, err := c.Sample(n)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	minX, maxX = pts[0].X, pts[0].X
	minY, maxY = pts[0].Y, pts[0].Y
	for _, p := range pts[1:] {
		minX = math.Min(minX, p.X)
		maxX = math.Max(maxX, p.X)
		minY = math.Min(minY, p.Y)
		maxY = math.Max(maxY, p.Y)
	}
	return minX, maxX, minY, maxY, nil
}
