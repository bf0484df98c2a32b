package mos

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func dev(wNm float64) Device {
	return NewDevice("M", wNm, 180, Default65nmNMOS())
}

func TestSquareLawAboveThreshold(t *testing.T) {
	d := dev(1800)
	// Well above threshold, saturation current should track (VGS-VTH)^2.
	i1 := d.IDSat(0.8)
	i2 := d.IDSat(1.2)
	ratio := i2 / i1
	want := math.Pow((1.2-0.4)/(0.8-0.4), 2)
	if math.Abs(ratio-want) > 0.03*want {
		t.Fatalf("square-law ratio = %v, want ~%v", ratio, want)
	}
}

func TestSubthresholdExponential(t *testing.T) {
	d := dev(1800)
	// Deep subthreshold: current scales ~exp(VGS/(n·VT)) — the squared
	// softplus overdrive approaches that slope from below as VGS drops.
	i1 := d.IDSat(0.10)
	i2 := d.IDSat(0.15)
	if i1 <= 0 || i2 <= 0 {
		t.Fatal("subthreshold current must be positive")
	}
	gotRatio := i2 / i1
	wantRatio := math.Exp(0.05 / (Default65nmNMOS().N * VThermal))
	if gotRatio < 0.95*wantRatio || gotRatio > 1.001*wantRatio {
		t.Fatalf("subthreshold ratio = %v, want ~%v", gotRatio, wantRatio)
	}
	// Current far below threshold is negligible vs strong inversion.
	if d.IDSat(0.1)/d.IDSat(1.0) > 1e-4 {
		t.Fatal("subthreshold leakage too large relative to on-current")
	}
}

func TestWidthScaling(t *testing.T) {
	// ID is proportional to W at fixed L and bias (Table I relies on this).
	i3000 := dev(3000).IDSat(0.8)
	i600 := dev(600).IDSat(0.8)
	if math.Abs(i3000/i600-5) > 1e-9 {
		t.Fatalf("width scaling = %v, want 5", i3000/i600)
	}
}

func TestTriodeSaturationContinuity(t *testing.T) {
	d := dev(1800)
	vgs := 0.9
	ve, _ := d.P.veff(vgs)
	below := d.Eval(vgs, ve-1e-9)
	above := d.Eval(vgs, ve+1e-9)
	if math.Abs(below.ID-above.ID) > 1e-8*math.Abs(above.ID) {
		t.Fatalf("current discontinuous at vds=veff: %v vs %v", below.ID, above.ID)
	}
	if below.Sat || !above.Sat {
		t.Fatal("saturation flag wrong around the corner")
	}
}

func TestEvalDerivativesMatchFiniteDifference(t *testing.T) {
	d := dev(2400)
	const h = 1e-7
	for _, pt := range []struct{ vgs, vds float64 }{
		{0.8, 1.0},  // saturation
		{0.9, 0.2},  // triode
		{0.3, 0.5},  // subthreshold
		{0.7, 0.05}, // deep triode
	} {
		op := d.Eval(pt.vgs, pt.vds)
		gmFD := (d.Eval(pt.vgs+h, pt.vds).ID - d.Eval(pt.vgs-h, pt.vds).ID) / (2 * h)
		gdsFD := (d.Eval(pt.vgs, pt.vds+h).ID - d.Eval(pt.vgs, pt.vds-h).ID) / (2 * h)
		if !close(op.Gm, gmFD, 1e-4) {
			t.Fatalf("gm at %+v: analytic %v vs FD %v", pt, op.Gm, gmFD)
		}
		if !close(op.Gds, gdsFD, 1e-4) {
			t.Fatalf("gds at %+v: analytic %v vs FD %v", pt, op.Gds, gdsFD)
		}
	}
}

func close(a, b, rtol float64) bool {
	d := math.Abs(a - b)
	return d <= rtol*math.Max(math.Abs(a), math.Abs(b))+1e-12
}

func TestNegativeVdsAntisymmetry(t *testing.T) {
	d := dev(1800)
	// With source/drain exchange: I(vgs, -vds) = -I(vgs+vds, vds).
	got := d.Eval(0.8, -0.3)
	ref := d.Eval(1.1, 0.3)
	if math.Abs(got.ID+ref.ID) > 1e-15+1e-9*math.Abs(ref.ID) {
		t.Fatalf("S/D exchange broken: %v vs %v", got.ID, -ref.ID)
	}
}

func TestNegativeVdsDerivatives(t *testing.T) {
	d := dev(1800)
	const h = 1e-7
	op := d.Eval(0.8, -0.3)
	gmFD := (d.Eval(0.8+h, -0.3).ID - d.Eval(0.8-h, -0.3).ID) / (2 * h)
	gdsFD := (d.Eval(0.8, -0.3+h).ID - d.Eval(0.8, -0.3-h).ID) / (2 * h)
	if !close(op.Gm, gmFD, 1e-4) || !close(op.Gds, gdsFD, 1e-4) {
		t.Fatalf("reverse-region derivatives: gm %v/%v gds %v/%v", op.Gm, gmFD, op.Gds, gdsFD)
	}
}

func TestZeroVdsZeroCurrent(t *testing.T) {
	d := dev(1800)
	if op := d.Eval(1.0, 0); op.ID != 0 {
		t.Fatalf("ID at VDS=0 should be 0, got %v", op.ID)
	}
}

func TestNewDeviceUnits(t *testing.T) {
	d := NewDevice("M1", 3000, 180, Default65nmNMOS())
	if math.Abs(d.W-3e-6) > 1e-18 || math.Abs(d.L-180e-9) > 1e-18 {
		t.Fatalf("unit conversion wrong: W=%v L=%v", d.W, d.L)
	}
	if math.Abs(d.GateAreaUm2()-0.54) > 1e-12 {
		t.Fatalf("gate area = %v µm², want 0.54", d.GateAreaUm2())
	}
}

func TestMonotoneInVgs(t *testing.T) {
	d := dev(1800)
	prev := -1.0
	for vgs := 0.0; vgs <= 1.2; vgs += 0.01 {
		id := d.IDSat(vgs)
		if id <= prev {
			t.Fatalf("IDSat not strictly increasing at VGS=%v", vgs)
		}
		prev = id
	}
}

func TestDiePerturbationStatistics(t *testing.T) {
	v := Default65nmVariation()
	base := NewDevice("m", 1800, 180, Default65nmNMOS())
	src := rng.New(7)
	nDies := 3000
	var vthShifts []float64
	for i := 0; i < nDies; i++ {
		die := v.SampleDie(src.Split(uint64(i)))
		p := die.Perturb(base)
		vthShifts = append(vthShifts, p.P.VTH0-base.P.VTH0)
	}
	mean, std := meanStd(vthShifts)
	if math.Abs(mean) > 3e-3 {
		t.Fatalf("VTH shift mean = %v, want ~0", mean)
	}
	// Total sigma = sqrt(global^2 + local^2), local from Pelgrom's law.
	local := v.AVT / math.Sqrt(base.W*base.L)
	want := math.Sqrt(v.GlobalVTH*v.GlobalVTH + local*local)
	if math.Abs(std-want) > 0.1*want {
		t.Fatalf("VTH shift std = %v, want ~%v", std, want)
	}
}

func TestPerturbSharesGlobalShift(t *testing.T) {
	v := Variation{GlobalVTH: 0.05} // no local mismatch
	die := v.SampleDie(rng.New(3))
	a := die.Perturb(dev(600))
	b := die.Perturb(dev(3000))
	if a.P.VTH0 != b.P.VTH0 {
		t.Fatal("global-only variation must shift all devices identically")
	}
}

func meanStd(xs []float64) (mean, std float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	std = math.Sqrt(std / float64(len(xs)-1))
	return
}

func TestKindString(t *testing.T) {
	if NMOS.String() != "nmos" || PMOS.String() != "pmos" {
		t.Fatal("Kind.String wrong")
	}
	d := NewDevice("M1", 600, 180, Default65nmNMOS())
	if s := d.String(); s == "" {
		t.Fatal("empty device description")
	}
}

// Property: Eval returns finite values and non-negative current for
// vds >= 0 across the whole bias plane.
func TestEvalFiniteProperty(t *testing.T) {
	d := dev(1800)
	prop := func(gRaw, dRaw uint16) bool {
		vgs := float64(gRaw) / 65535 * 1.2
		vds := float64(dRaw) / 65535 * 1.2
		op := d.Eval(vgs, vds)
		if math.IsNaN(op.ID) || math.IsInf(op.ID, 0) || op.ID < 0 {
			return false
		}
		return op.Gm >= 0 && !math.IsNaN(op.Gds)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAtTemperature(t *testing.T) {
	p := Default65nmNMOS()
	hot := p.AtTemperature(400)
	if hot.VTH0 >= p.VTH0 {
		t.Fatal("VTH must drop with temperature")
	}
	if math.Abs((p.VTH0-hot.VTH0)-0.1) > 1e-12 {
		t.Fatalf("VTH shift = %v, want 100 mV at +100 K", p.VTH0-hot.VTH0)
	}
	if hot.KP >= p.KP {
		t.Fatal("mobility must degrade with temperature")
	}
	want := p.KP * math.Pow(400.0/300.0, -1.5)
	if math.Abs(hot.KP-want) > 1e-12 {
		t.Fatalf("KP = %v, want %v", hot.KP, want)
	}
	// Reference temperature is the identity.
	same := p.AtTemperature(300)
	if same != p {
		t.Fatal("300 K must be the identity")
	}
	// Non-positive temperature falls back to 300 K.
	if p.AtTemperature(-5) != p {
		t.Fatal("invalid temperature should fall back to reference")
	}
}

func TestTemperatureMovesBoundaryCurrent(t *testing.T) {
	d := dev(1800)
	hot := d
	hot.P = d.P.AtTemperature(380)
	// Near threshold the VTH drop dominates: more current when hot.
	if hot.IDSat(0.45) <= d.IDSat(0.45) {
		t.Fatal("near-threshold current should rise when hot")
	}
	// Far above threshold the mobility loss dominates: less current.
	if hot.IDSat(1.2) >= d.IDSat(1.2) {
		t.Fatal("strong-inversion current should drop when hot")
	}
}

func TestCornerShifts(t *testing.T) {
	n := Default65nmNMOS()
	p := Default65nmPMOS()
	// TT is identity.
	if n.AtCorner(TT) != n || p.AtCorner(TT) != p {
		t.Fatal("TT corner must be the identity")
	}
	// SS slows both; FF speeds both.
	if n.AtCorner(SS).VTH0 <= n.VTH0 || p.AtCorner(SS).VTH0 <= p.VTH0 {
		t.Fatal("SS must raise both thresholds")
	}
	if n.AtCorner(FF).KP <= n.KP || p.AtCorner(FF).KP <= p.KP {
		t.Fatal("FF must raise both mobilities")
	}
	// SF: slow n, fast p.
	if n.AtCorner(SF).VTH0 <= n.VTH0 {
		t.Fatal("SF must slow the nMOS")
	}
	if p.AtCorner(SF).VTH0 >= p.VTH0 {
		t.Fatal("SF must speed the pMOS")
	}
	// FS mirrors SF.
	if n.AtCorner(FS).VTH0 >= n.VTH0 || p.AtCorner(FS).VTH0 <= p.VTH0 {
		t.Fatal("FS polarity wrong")
	}
	// String names.
	names := map[Corner]string{TT: "TT", SS: "SS", FF: "FF", SF: "SF", FS: "FS"}
	for c, want := range names {
		if c.String() != want {
			t.Fatalf("corner %d name %q, want %q", c, c.String(), want)
		}
	}
	if len(Corners()) != 5 {
		t.Fatal("corner list wrong")
	}
}

// TestIDSatKeepsBits pins IDSat, now IDSatVeff(Veff(vgs)), to the formula
// it replaced, veff with its derivative and then 0.5·KP·W/L·ve·ve, bit
// for bit: at and around both ±40 switches of the softplus, across and
// beyond the monitors' input range, for nominal, corner and temperature
// parameters of both polarities.
func TestIDSatKeepsBits(t *testing.T) {
	old := func(d Device, vgs float64) float64 {
		ve, _ := d.P.veff(vgs)
		return 0.5 * d.P.KP * d.W / d.L * ve * ve
	}
	var params []Params
	for _, p := range []Params{Default65nmNMOS(), Default65nmPMOS()} {
		params = append(params, p)
		for _, c := range Corners() {
			params = append(params, p.AtCorner(c))
		}
		for _, tk := range []float64{233, 273, 323, 358, 398} {
			params = append(params, p.AtTemperature(tk))
		}
	}
	src := rng.New(19)
	for _, p := range params {
		var vs []float64
		for _, s := range []float64{-40, 40} {
			edge := p.VTH0 + s*2*p.N*VThermal
			for k := -3; k <= 3; k++ {
				v := edge + float64(k)*1e-12
				vs = append(vs, v, math.Nextafter(v, math.Inf(-1)), math.Nextafter(v, math.Inf(1)))
			}
		}
		for k := 0; k <= 64; k++ {
			vs = append(vs, float64(k)/64)
		}
		for k := 0; k < 500; k++ {
			vs = append(vs, -4+8*src.Float64())
		}
		for _, w := range []float64{600, 1800, 3000} {
			d := NewDevice("M", w, 180, p)
			for _, v := range vs {
				if got, want := d.IDSat(v), old(d, v); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%v at %v V: IDSat %v, formula %v", d, v, got, want)
				}
				if ve, _ := p.veff(v); math.Float64bits(p.Veff(v)) != math.Float64bits(ve) {
					t.Fatalf("%v at %v V: Veff %v, veff %v", p, v, p.Veff(v), ve)
				}
			}
		}
	}
}
