package lissajous

import (
	"math"
	"testing"

	"repro/internal/biquad"
	"repro/internal/wave"
)

func TestCommonPeriodEqual(t *testing.T) {
	c, err := New(wave.Sine{Amp: 1, Freq: 100}, wave.Sine{Amp: 1, Freq: 100})
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.CommonPeriod()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.01) > 1e-15 {
		t.Fatalf("period = %v, want 0.01", p)
	}
}

func TestCommonPeriodRational(t *testing.T) {
	// 3:2 ratio -> common period = 2/f_x = 3/f_y.
	c, err := New(wave.Sine{Amp: 1, Freq: 300}, wave.Sine{Amp: 1, Freq: 200})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := c.CommonPeriod()
	if math.Abs(p-0.01) > 1e-12 {
		t.Fatalf("period = %v, want 0.01", p)
	}
}

func TestCommonPeriodRejectsAperiodic(t *testing.T) {
	if _, err := New(wave.DC(1), wave.Sine{Amp: 1, Freq: 100}); err == nil {
		t.Fatal("aperiodic x accepted")
	}
}

func TestCommonPeriodRejectsIrrational(t *testing.T) {
	if _, err := New(wave.Sine{Amp: 1, Freq: 100}, wave.Sine{Amp: 1, Freq: 100 * math.Pi}); err == nil {
		t.Fatal("irrational ratio accepted")
	}
}

func TestSampleClosedCurve(t *testing.T) {
	c, _ := New(wave.Sine{Amp: 1, Freq: 100}, wave.Sine{Amp: 1, Freq: 200})
	pts, err := c.Sample(1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1000 {
		t.Fatalf("points = %d", len(pts))
	}
	// Closed: evaluating at t=0 and t=T gives the same point.
	x0, y0 := c.Eval(0)
	T, _ := c.CommonPeriod()
	x1, y1 := c.Eval(T)
	if math.Hypot(x1-x0, y1-y0) > 1e-9 {
		t.Fatal("curve not closed over common period")
	}
}

func TestSampleValidation(t *testing.T) {
	c, _ := New(wave.Sine{Amp: 1, Freq: 100}, wave.Sine{Amp: 1, Freq: 100})
	if _, err := c.Sample(1); err == nil {
		t.Fatal("n=1 accepted")
	}
}

func TestBoundingBoxCircle(t *testing.T) {
	// Equal frequency, 90° phase -> circle of radius A.
	c, _ := New(
		wave.Sine{Amp: 0.4, Freq: 100, Offset: 0.5},
		wave.Sine{Amp: 0.4, Freq: 100, Offset: 0.5, Phase: math.Pi / 2},
	)
	minX, maxX, minY, maxY, err := c.BoundingBox(4096)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]float64{{minX, 0.1}, {maxX, 0.9}, {minY, 0.1}, {maxY, 0.9}} {
		if math.Abs(pair[0]-pair[1]) > 1e-3 {
			t.Fatalf("bbox %v, want %v", pair[0], pair[1])
		}
	}
}

// paperCurves builds the golden and +10% f0 Lissajous pair of Fig. 1.
func paperCurves(t *testing.T) (golden, defective Curve) {
	t.Helper()
	in, err := wave.NewMultitone(0.5, 5e3, []int{1, 2, 3},
		[]float64{0.22, 0.13, 0.08}, []float64{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	p := biquad.Params{F0: 10e3, Q: 0.9, Gain: 1}
	g, err := biquad.New(p)
	if err != nil {
		t.Fatal(err)
	}
	d, err := biquad.New(p.WithF0Shift(0.10))
	if err != nil {
		t.Fatal(err)
	}
	cg, err := New(in, g.SteadyState(in))
	if err != nil {
		t.Fatal(err)
	}
	cd, err := New(in, d.SteadyState(in))
	if err != nil {
		t.Fatal(err)
	}
	return cg, cd
}

func TestPaperLissajousPeriod(t *testing.T) {
	g, _ := paperCurves(t)
	p, err := g.CommonPeriod()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-200e-6) > 1e-12 {
		t.Fatalf("Lissajous period = %v, want 200 µs (Fig. 7 time axis)", p)
	}
}

func TestPaperLissajousStaysInUnitSquare(t *testing.T) {
	g, d := paperCurves(t)
	for _, c := range []Curve{g, d} {
		minX, maxX, minY, maxY, err := c.BoundingBox(4000)
		if err != nil {
			t.Fatal(err)
		}
		if minX < 0 || maxX > 1 || minY < 0 || maxY > 1 {
			t.Fatalf("curve leaves unit square: [%v,%v]x[%v,%v]", minX, maxX, minY, maxY)
		}
	}
}

func TestF0ShiftDeformsCurve(t *testing.T) {
	g, d := paperCurves(t)
	// Largest pointwise distance between the curves sampled at the same
	// instants over one period.
	T, err := g.CommonPeriod()
	if err != nil {
		t.Fatal(err)
	}
	dev := 0.0
	for i := 0; i < 2000; i++ {
		gx, gy := g.Eval(T * float64(i) / 2000)
		dx, dy := d.Eval(T * float64(i) / 2000)
		dev = math.Max(dev, math.Hypot(gx-dx, gy-dy))
	}
	// A 10% f0 shift must move the trace visibly (Fig. 1) but not
	// unrecognizably.
	if dev < 0.01 || dev > 0.3 {
		t.Fatalf("max deviation = %v, outside plausible band", dev)
	}
}
