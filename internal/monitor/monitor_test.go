package monitor

import (
	"context"
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/campaign"
	"repro/internal/mos"
	"repro/internal/rng"
)

func TestTableIStructure(t *testing.T) {
	cfgs := TableI()
	if len(cfgs) != 6 {
		t.Fatalf("TableI has %d configs, want 6", len(cfgs))
	}
	// Row 1: widths 3000/600/600/3000, V1=Y, V2=0.2, V3=X, V4=0.6.
	c1 := cfgs[0]
	if c1.WidthsNm != [4]float64{3000, 600, 600, 3000} {
		t.Fatalf("row 1 widths = %v", c1.WidthsNm)
	}
	if c1.Inputs[0].Kind != DriveY || c1.Inputs[2].Kind != DriveX {
		t.Fatal("row 1 drive kinds wrong")
	}
	if c1.Inputs[1].DC != 0.2 || c1.Inputs[3].DC != 0.6 {
		t.Fatal("row 1 biases wrong")
	}
	// Rows 3-5 symmetric widths.
	for i := 2; i <= 5; i++ {
		if cfgs[i].WidthsNm != [4]float64{1800, 1800, 1800, 1800} {
			t.Fatalf("row %d widths = %v", i+1, cfgs[i].WidthsNm)
		}
	}
	for i, c := range cfgs {
		if err := c.Validate(); err != nil {
			t.Fatalf("config %d invalid: %v", i+1, err)
		}
		if c.LengthNm != 180 {
			t.Fatalf("config %d length = %v, want 180", i+1, c.LengthNm)
		}
	}
}

func TestValidateRejectsBadConfig(t *testing.T) {
	c := TableI()[0]
	c.WidthsNm[2] = 0
	if err := c.Validate(); err == nil {
		t.Fatal("zero width accepted")
	}
	c = TableI()[0]
	c.VDD = 0
	if err := c.Validate(); err == nil {
		t.Fatal("zero VDD accepted")
	}
}

func TestInputKindString(t *testing.T) {
	if X().Kind.String() != "X axis" || Y().Kind.String() != "Y axis" || Bias(1).Kind.String() != "DC" {
		t.Fatal("InputKind.String wrong")
	}
	if Bias(0.3).Voltage(0.9, 0.8) != 0.3 {
		t.Fatal("DC input should ignore plane point")
	}
	if X().Voltage(0.9, 0.8) != 0.9 || Y().Voltage(0.9, 0.8) != 0.8 {
		t.Fatal("axis inputs resolve wrong")
	}
}

func TestCurve6IsDiagonal(t *testing.T) {
	m := MustAnalytic(TableI()[5])
	// Above threshold the symmetric configuration must put the boundary
	// on y = x.
	for _, x := range []float64{0.5, 0.6, 0.8, 1.0} {
		y, ok := m.BoundaryY(x, 0, 1)
		if !ok {
			t.Fatalf("no boundary at x=%v", x)
		}
		if math.Abs(y-x) > 1e-6 {
			t.Fatalf("curve 6 at x=%v gives y=%v, want y=x", x, y)
		}
	}
	if m.Bit(0.9, 0.1) != 0 {
		t.Fatal("below-diagonal must be origin side (0)")
	}
	if m.Bit(0.1, 0.9) != 1 {
		t.Fatal("above-diagonal must be 1")
	}
}

func TestCurves3to5PassThroughBiasPoint(t *testing.T) {
	cfgs := TableI()
	for i, bias := range map[int]float64{2: 0.55, 3: 0.3, 4: 0.75} {
		m := MustAnalytic(cfgs[i])
		if b := m.Balance(bias, bias); math.Abs(b) > 1e-12 {
			t.Fatalf("curve %d balance at (%v,%v) = %v, want 0", i+1, bias, bias, b)
		}
	}
}

func TestCurves3to5NegativeSlope(t *testing.T) {
	for _, idx := range []int{2, 4} { // curves 3 and 5
		m := MustAnalytic(TableI()[idx])
		var prev float64
		first := true
		for x := 0.2; x <= 0.9; x += 0.05 {
			y, ok := m.BoundaryY(x, 0, 1)
			if !ok {
				continue
			}
			if !first && y > prev+1e-9 {
				t.Fatalf("curve %d not monotonically decreasing at x=%v", idx+1, x)
			}
			prev, first = y, false
		}
		if first {
			t.Fatalf("curve %d never crossed the unit square", idx+1)
		}
	}
}

func TestCurve1PositiveSlopeAboveCurve2(t *testing.T) {
	m1 := MustAnalytic(TableI()[0])
	m2 := MustAnalytic(TableI()[1])
	// Curve 1: for x below threshold the left branch must balance the
	// fixed right side at y ≈ the level where I(M1,y) = I(M4,0.6):
	// widths are equal so y -> 0.6.
	y0, ok := m1.BoundaryY(0.05, 0, 1)
	if !ok {
		t.Fatal("curve 1 missing at x=0.05")
	}
	if math.Abs(y0-0.6) > 0.02 {
		t.Fatalf("curve 1 left end y=%v, want ~0.6", y0)
	}
	// Positive slope: y rises with x.
	y1, ok1 := m1.BoundaryY(0.95, 0, 1)
	if !ok1 || y1 <= y0 {
		t.Fatalf("curve 1 slope not positive: y(0.05)=%v y(0.95)=%v", y0, y1)
	}
	// Curve 2 is the mirrored segment: it crosses lower-right (large x,
	// smaller y). At its left end the crossing should sit near x ≈ 0.6
	// at y below threshold.
	x0, ok := m2.BoundaryX(0.05, 0, 1)
	if !ok {
		t.Fatal("curve 2 missing at y=0.05")
	}
	if math.Abs(x0-0.6) > 0.02 {
		t.Fatalf("curve 2 bottom end x=%v, want ~0.6", x0)
	}
}

func TestReferencePointCodesZero(t *testing.T) {
	for i, cfg := range TableI() {
		m := MustAnalytic(cfg)
		if m.Bit(cfg.RefX, cfg.RefY) != 0 {
			t.Fatalf("monitor %d reference point not in zone 0", i+1)
		}
	}
}

func TestBankClassify(t *testing.T) {
	b := NewAnalyticTableI()
	if b.Size() != 6 {
		t.Fatalf("bank size = %d", b.Size())
	}
	// Origin region must be code 0 (paper: all monitors deliver "0" for
	// the region containing the origin).
	if c := b.Classify(0.02, 0.0); c != 0 {
		t.Fatalf("origin zone code = %s, want all zeros", b.FormatCode(c))
	}
	// Far corner (1, 1) lies beyond curves 1,3,4,6 at least; its code
	// must be nonzero and stable.
	c := b.Classify(1, 1)
	if c == 0 {
		t.Fatal("far corner coded as origin zone")
	}
}

func TestCodeOps(t *testing.T) {
	var a, b Code = 0b000100, 0b000101
	if d := a.HammingDistance(b); d != 1 {
		t.Fatalf("Hamming = %d, want 1", d)
	}
	if d := Code(0).HammingDistance(0b111111); d != 6 {
		t.Fatalf("Hamming = %d, want 6", d)
	}
	if a.Bit(2) != 1 || a.Bit(0) != 0 {
		t.Fatal("Bit extraction wrong")
	}
}

func TestFormatCodeMatchesPaperConvention(t *testing.T) {
	b := NewAnalyticTableI()
	// Monitor 1 = MSB. Code with only monitor 1 set -> "100000 (32)".
	if s := b.FormatCode(Code(1)); s != "100000 (32)" {
		t.Fatalf("FormatCode = %q, want \"100000 (32)\"", s)
	}
	if s := b.FormatCode(Code(0b100000)); s != "000001 (1)" {
		t.Fatalf("FormatCode = %q, want \"000001 (1)\"", s)
	}
	if d := b.Decimal(Code(0b000011)); d != 48 {
		t.Fatalf("Decimal = %d, want 48", d)
	}
}

func TestGrayPropertyAlongPaths(t *testing.T) {
	// Moving along a fine path, the zone code changes by 1 bit at a time
	// except when two boundaries are crossed within one step (rare).
	b := NewAnalyticTableI()
	steps := 600
	multi := 0
	transitions := 0
	for i := 0; i < steps; i++ {
		t0 := float64(i) / float64(steps)
		t1 := float64(i+1) / float64(steps)
		// Diagonal-ish path that crosses many zones.
		x0, y0 := t0, 0.3+0.55*t0
		x1, y1 := t1, 0.3+0.55*t1
		c0, c1 := b.Classify(x0, y0), b.Classify(x1, y1)
		if c0 != c1 {
			transitions++
			if c0.HammingDistance(c1) > 1 {
				multi++
			}
		}
	}
	if transitions < 3 {
		t.Fatalf("path crossed only %d boundaries; test path is wrong", transitions)
	}
	if multi > transitions/3 {
		t.Fatalf("%d of %d transitions changed >1 bit; zones not Gray-adjacent", multi, transitions)
	}
}

func TestWithDevicesShiftsBoundary(t *testing.T) {
	a := MustAnalytic(TableI()[2])
	devs := a.Devices()
	for i := range devs {
		devs[i].P.VTH0 += 0.05 // common shift moves the arc outward
	}
	p := a.WithDevices(devs)
	y0, ok0 := a.BoundaryY(0.4, 0, 1)
	y1, ok1 := p.BoundaryY(0.4, 0, 1)
	if !ok0 || !ok1 {
		t.Fatal("boundary lost after perturbation")
	}
	if math.Abs(y0-y1) < 1e-4 {
		t.Fatal("VTH shift did not move the boundary")
	}
}

func TestMCEnvelopeSpread(t *testing.T) {
	b := NewAnalyticTableI()
	xs, ys, err := b.MCEnvelopeCtx(context.Background(), 2, mos.Default65nmVariation(), 11, 40, 21, campaign.Engine{})
	if err != nil {
		t.Fatal(err)
	}
	if len(xs) != 21 {
		t.Fatalf("cols = %d", len(xs))
	}
	// Columns crossing the arc should show nonzero spread.
	found := false
	for i := range xs {
		if len(ys[i]) >= 30 {
			lo, hi := ys[i][0], ys[i][0]
			for _, v := range ys[i] {
				lo, hi = math.Min(lo, v), math.Max(hi, v)
			}
			if hi-lo > 1e-4 {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("Monte Carlo produced no boundary spread")
	}
}

func TestAreaModelMatchesPublishedReference(t *testing.T) {
	est := EstimateArea(TableI()[0])
	if math.Abs(est.CoreUm2-RefCoreAreaUm2) > 1e-9 {
		t.Fatalf("reference core area = %v, want %v", est.CoreUm2, RefCoreAreaUm2)
	}
	if math.Abs(est.TotalUm2-RefTotalAreaUm2) > 1e-9 {
		t.Fatalf("reference total area = %v, want %v", est.TotalUm2, RefTotalAreaUm2)
	}
	// Table I rows all share a 7200 nm total input width, so their core
	// areas coincide; a genuinely smaller design must shrink the core.
	small := TableI()[2]
	small.WidthsNm = [4]float64{600, 600, 600, 600}
	estSmall := EstimateArea(small)
	if estSmall.CoreUm2 >= est.CoreUm2 {
		t.Fatalf("small core %v should be below reference core %v", estSmall.CoreUm2, est.CoreUm2)
	}
	ba := BankArea(NewAnalyticTableI())
	if ba < 6*80 || ba > 6*120 {
		t.Fatalf("bank area = %v µm², outside plausible range", ba)
	}
}

func TestSpiceMonitorAgreesWithAnalyticFarFromBoundary(t *testing.T) {
	for _, idx := range []int{2, 5} { // curve 3 (arc) and curve 6 (diagonal)
		cfg := TableI()[idx]
		sm, err := NewSpice(cfg, nil)
		if err != nil {
			t.Fatalf("monitor %d: %v", idx+1, err)
		}
		am := MustAnalytic(cfg)
		pts := []Point{{0.15, 0.15}, {0.9, 0.9}, {0.85, 0.2}, {0.2, 0.85}}
		for _, p := range pts {
			// Skip points near the analytic boundary (|balance| small).
			if math.Abs(am.Balance(p.X, p.Y)) < 20e-6 {
				continue
			}
			ab := am.Bit(p.X, p.Y)
			sb, err := sm.BitErr(p.X, p.Y)
			if err != nil {
				t.Fatalf("monitor %d at %+v: %v", idx+1, p, err)
			}
			if ab != sb {
				t.Fatalf("monitor %d at %+v: analytic=%d spice=%d", idx+1, p, ab, sb)
			}
		}
	}
}

func TestSpiceBoundaryNearAnalytic(t *testing.T) {
	cfg := TableI()[2] // curve 3 arc
	sm, err := NewSpice(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	am := MustAnalytic(cfg)
	for _, x := range []float64{0.3, 0.5} {
		ya, okA := am.BoundaryY(x, 0, 1)
		ys, okS := sm.BoundaryY(x, 0, 1)
		if !okA || !okS {
			t.Fatalf("boundary missing at x=%v (analytic %v, spice %v)", x, okA, okS)
		}
		if math.Abs(ya-ys) > 0.08 {
			t.Fatalf("x=%v: analytic y=%v vs spice y=%v differ too much", x, ya, ys)
		}
	}
}

func TestSpiceOutputVoltagesSwap(t *testing.T) {
	cfg := TableI()[5] // diagonal
	sm, err := NewSpice(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	v1a, v2a, err := sm.OutputVoltages(0.9, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	v1b, v2b, err := sm.OutputVoltages(0.2, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	// Swapping x and y mirrors the differential comparison.
	if (v2a > v1a) == (v2b > v1b) {
		t.Fatalf("differential output did not flip: (%v,%v) then (%v,%v)", v1a, v2a, v1b, v2b)
	}
}

// Property: analytic Bit is a deterministic two-coloring — recomputing at
// the same point always matches, and the boundary found by BoundaryY
// separates bits.
func TestBoundarySeparatesBitsProperty(t *testing.T) {
	m := MustAnalytic(TableI()[2])
	prop := func(xRaw uint8) bool {
		x := 0.1 + 0.8*float64(xRaw)/255
		y, ok := m.BoundaryY(x, 0, 1)
		if !ok {
			return true // no boundary in this column
		}
		below := m.Bit(x, math.Max(0, y-0.02))
		above := m.Bit(x, math.Min(1, y+0.02))
		return below != above
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMCEnvelopeDeterministicAcrossParallelism(t *testing.T) {
	b := NewAnalyticTableI()
	run := func(procs int) [][]float64 {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		_, ys, err := b.MCEnvelopeCtx(context.Background(), 2, mos.Default65nmVariation(), 77, 24, 11, campaign.Engine{})
		if err != nil {
			t.Fatal(err)
		}
		return ys
	}
	a := run(1)
	c := run(8)
	for i := range a {
		if len(a[i]) != len(c[i]) {
			t.Fatalf("column %d length differs across parallelism", i)
		}
		for j := range a[i] {
			if a[i][j] != c[i][j] {
				t.Fatalf("column %d entry %d differs: %v vs %v", i, j, a[i][j], c[i][j])
			}
		}
	}
}

func TestTraceBoundaryCoversCurve(t *testing.T) {
	a := MustAnalytic(TableI()[2])
	pts := a.TraceBoundary(0, 1, 31)
	if len(pts) < 10 {
		t.Fatalf("trace has only %d points", len(pts))
	}
	for _, p := range pts {
		if b := a.Balance(p.X, p.Y); math.Abs(b) > 1e-9 {
			t.Fatalf("trace point (%v,%v) off boundary: balance %v", p.X, p.Y, b)
		}
	}
	// Near-vertical curve 2 must still be traced via the row scan.
	p2 := MustAnalytic(TableI()[1]).TraceBoundary(0, 1, 31)
	if len(p2) < 5 {
		t.Fatalf("curve 2 trace has only %d points", len(p2))
	}
}

func TestBankPerturbed(t *testing.T) {
	b := NewAnalyticTableI()
	die := mos.Default65nmVariation().SampleDie(rng.New(5))
	pb := b.Perturbed(die)
	if pb.Size() != b.Size() {
		t.Fatal("perturbed bank changed size")
	}
	// Classification near a boundary should differ somewhere on a grid.
	diff := 0
	for x := 0.05; x < 1; x += 0.1 {
		for y := 0.05; y < 1; y += 0.1 {
			if b.Classify(x, y) != pb.Classify(x, y) {
				diff++
			}
		}
	}
	if diff == 0 {
		t.Fatal("Monte Carlo perturbation changed nothing on a 10x10 grid")
	}
	if diff > 50 {
		t.Fatalf("perturbation changed %d/100 cells — implausibly large", diff)
	}
}

func TestStuckMonitor(t *testing.T) {
	base := MustAnalytic(TableI()[2])
	st, err := NewStuck(base, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Bit(0.02, 0) != 1 || st.Bit(0.9, 0.9) != 1 {
		t.Fatal("stuck output moved")
	}
	if st.Config().Name != base.Config().Name {
		t.Fatal("config not passed through")
	}
	if _, err := NewStuck(base, 2); err == nil {
		t.Fatal("bad stuck value accepted")
	}
	b := NewAnalyticTableI()
	if _, err := b.WithStuckMonitor(99, 0); err == nil {
		t.Fatal("bad index accepted")
	}
	sb, err := b.WithStuckMonitor(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Bit 2 of every classification is forced to 1.
	if sb.Classify(0.02, 0.0).Bit(2) != 1 {
		t.Fatal("stuck bank did not force the bit")
	}
}

func TestSpiceMonitorInterface(t *testing.T) {
	cfg := TableI()[5]
	sm, err := NewSpice(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The Monitor interface path (Bit without error) and Config.
	if sm.Config().Name != cfg.Name {
		t.Fatal("config accessor wrong")
	}
	if b := sm.Bit(0.9, 0.2); b != 0 {
		t.Fatalf("below-diagonal spice bit = %d, want 0", b)
	}
	// BoundaryX on the diagonal: at y=0.7 the crossing is x≈0.7.
	x, ok := sm.BoundaryX(0.7, 0, 1)
	if !ok || math.Abs(x-0.7) > 0.05 {
		t.Fatalf("spice BoundaryX = %v (ok=%v), want ~0.7", x, ok)
	}
}

func TestNewSpiceTableI(t *testing.T) {
	b, err := NewSpiceTableI()
	if err != nil {
		t.Fatal(err)
	}
	if b.Size() != 6 {
		t.Fatalf("spice bank size = %d", b.Size())
	}
	if c := b.Classify(0.02, 0.0); c != 0 {
		t.Fatalf("spice bank origin code = %06b", c)
	}
}
