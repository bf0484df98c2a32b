package spice

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/mos"
)

func TestACRCLowpass(t *testing.T) {
	c := New()
	in, out := c.Node("in"), c.Node("out")
	c.Add(NewVSource("V1", in, Ground, 0))
	c.Add(NewResistor("R1", in, out, 1e3))
	c.Add(NewCapacitor("C1", out, Ground, 1e-6))
	fc := 1 / (2 * math.Pi * 1e3 * 1e-6) // ~159 Hz
	freqs := []float64{1, fc, 100 * fc}
	res, err := AC(c, "V1", freqs)
	if err != nil {
		t.Fatal(err)
	}
	// Far below cutoff: |H| ~ 1; at cutoff: 1/sqrt(2); far above: ~fc/f.
	v0, _ := res.Voltage("out", 0)
	if math.Abs(cmplx.Abs(v0)-1) > 1e-3 {
		t.Fatalf("|H(1 Hz)| = %v, want ~1", cmplx.Abs(v0))
	}
	v1, _ := res.Voltage("out", 1)
	if math.Abs(cmplx.Abs(v1)-1/math.Sqrt2) > 1e-3 {
		t.Fatalf("|H(fc)| = %v, want 0.707", cmplx.Abs(v1))
	}
	if ph := cmplx.Phase(v1); math.Abs(ph+math.Pi/4) > 1e-3 {
		t.Fatalf("arg H(fc) = %v, want -45°", ph)
	}
	v2, _ := res.Voltage("out", 2)
	if got, want := cmplx.Abs(v2), 0.01; math.Abs(got-want) > 0.001 {
		t.Fatalf("|H(100 fc)| = %v, want ~%v", got, want)
	}
}

func TestACUnknownSource(t *testing.T) {
	c := New()
	n := c.Node("a")
	c.Add(NewVSource("V1", n, Ground, 1))
	c.Add(NewResistor("R1", n, Ground, 1e3))
	if _, err := AC(c, "nope", []float64{1}); err == nil {
		t.Fatal("unknown AC source accepted")
	}
}

func TestACGroundVoltage(t *testing.T) {
	c := New()
	n := c.Node("a")
	c.Add(NewVSource("V1", n, Ground, 0))
	c.Add(NewResistor("R1", n, Ground, 1e3))
	res, err := AC(c, "V1", []float64{10})
	if err != nil {
		t.Fatal(err)
	}
	if v, err := res.Voltage("0", 0); err != nil || v != 0 {
		t.Fatal("ground must be 0 in AC")
	}
	if _, err := res.Voltage("missing", 0); err == nil {
		t.Fatal("unknown node accepted")
	}
}

func TestACVCVSGain(t *testing.T) {
	c := New()
	in, out := c.Node("in"), c.Node("out")
	c.Add(NewVSource("V1", in, Ground, 0))
	c.Add(NewVCVS("E1", out, Ground, in, Ground, 42))
	c.Add(NewResistor("RL", out, Ground, 1e3))
	res, err := AC(c, "V1", []float64{1e3})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := res.Voltage("out", 0)
	if math.Abs(cmplx.Abs(v)-42) > 1e-3 {
		t.Fatalf("VCVS AC gain = %v, want 42", cmplx.Abs(v))
	}
}

func TestACCommonSourceGain(t *testing.T) {
	// NMOS common-source amp: |Av| ~ gm*(RD || 1/gds) at low frequency.
	c := New()
	vddN, d, g := c.Node("vdd"), c.Node("d"), c.Node("g")
	dev := mos.NewDevice("M1", 1800, 180, mos.Default65nmNMOS())
	c.Add(NewVSource("VDD", vddN, Ground, 1.2))
	c.Add(NewVSource("VG", g, Ground, 0.7))
	c.Add(NewResistor("RD", vddN, d, 10e3))
	m := NewMOSFET("M1", d, g, Ground, dev)
	c.Add(m)
	op, err := DCOperatingPoint(c)
	if err != nil {
		t.Fatal(err)
	}
	pt := m.Op(op)
	want := pt.Gm / (1.0/10e3 + pt.Gds)
	res, err := AC(c, "VG", []float64{100})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := res.Voltage("d", 0)
	if math.Abs(cmplx.Abs(v)-want) > 1e-3*want {
		t.Fatalf("CS gain = %v, want %v", cmplx.Abs(v), want)
	}
	// Inverting stage: phase ~180°.
	if ph := math.Abs(cmplx.Phase(v)); math.Abs(ph-math.Pi) > 1e-3 {
		t.Fatalf("CS phase = %v, want π", ph)
	}
}

func TestACPMOSCommonSource(t *testing.T) {
	// PMOS common-source: same magnitude law with the pMOS stamps.
	c := New()
	vddN, d, g := c.Node("vdd"), c.Node("d"), c.Node("g")
	dev := mos.NewDevice("M1", 3600, 180, mos.Default65nmPMOS())
	c.Add(NewVSource("VDD", vddN, Ground, 1.2))
	c.Add(NewVSource("VG", g, Ground, 0.3))
	m := NewMOSFET("M1", d, g, vddN, dev)
	c.Add(m)
	c.Add(NewResistor("RL", d, Ground, 10e3))
	op, err := DCOperatingPoint(c)
	if err != nil {
		t.Fatal(err)
	}
	pt := m.Op(op)
	want := pt.Gm / (1.0/10e3 + pt.Gds)
	res, err := AC(c, "VG", []float64{100})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := res.Voltage("d", 0)
	if math.Abs(cmplx.Abs(v)-want) > 1e-3*want {
		t.Fatalf("PMOS CS gain = %v, want %v", cmplx.Abs(v), want)
	}
}
