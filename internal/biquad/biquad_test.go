package biquad

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"repro/internal/wave"
)

// mustFilter is the test-side replacement for the removed MustNew: the
// library only exposes the error-returning constructor.
func mustFilter(t *testing.T, p Params) *Filter {
	t.Helper()
	f, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func paperFilter(t *testing.T) *Filter {
	return mustFilter(t, Params{F0: 10e3, Q: 0.9, Gain: 1})
}

func TestValidate(t *testing.T) {
	bad := []Params{
		{F0: 0, Q: 1, Gain: 1},
		{F0: 1, Q: 0, Gain: 1},
		{F0: 1, Q: 1, Gain: 0},
		{F0: -5, Q: 1, Gain: 1},
	}
	for _, p := range bad {
		if _, err := New(p); err == nil {
			t.Fatalf("params %+v accepted", p)
		}
	}
}

func TestDCResponse(t *testing.T) {
	f := paperFilter(t)
	if g := cmplx.Abs(f.Response(0)); math.Abs(g-1) > 1e-12 {
		t.Fatalf("|H(0)| = %v, want 1", g)
	}
	if p := cmplx.Phase(f.Response(0)); math.Abs(p) > 1e-12 {
		t.Fatalf("arg H(0) = %v, want 0", p)
	}
}

func TestResponseAtF0(t *testing.T) {
	f := paperFilter(t)
	// At s = jω0 the denominator is jω0²/Q, so |H| = Q·Gain and the
	// phase is -90°.
	if g := cmplx.Abs(f.Response(10e3)); math.Abs(g-0.9) > 1e-9 {
		t.Fatalf("|H(f0)| = %v, want Q = 0.9", g)
	}
	if p := cmplx.Phase(f.Response(10e3)); math.Abs(p+math.Pi/2) > 1e-9 {
		t.Fatalf("arg H(f0) = %v, want -π/2", p)
	}
}

func TestHighFrequencyRolloff(t *testing.T) {
	f := paperFilter(t)
	// Two decades above f0 the roll-off is -40 dB/dec: |H| ≈ (f0/f)².
	g := cmplx.Abs(f.Response(1e6))
	want := math.Pow(10e3/1e6, 2)
	if math.Abs(g-want) > 0.02*want {
		t.Fatalf("|H(100·f0)| = %v, want ~%v", g, want)
	}
}

func TestF0ShiftScalesResponse(t *testing.T) {
	f := paperFilter(t)
	shifted := Params{F0: 10e3, Q: 0.9, Gain: 1}.WithF0Shift(0.10)
	if math.Abs(shifted.F0-11e3) > 1e-9 {
		t.Fatalf("shifted F0 = %v, want 11 kHz", shifted.F0)
	}
	fShift := mustFilter(t, shifted)
	// Frequency scaling: H_shifted(1.1·f) == H(f).
	for _, freq := range []float64{1e3, 5e3, 10e3, 20e3} {
		a := f.Response(freq)
		b := fShift.Response(1.1 * freq)
		if d := cmplxAbs(a - b); d > 1e-9 {
			t.Fatalf("scaling property violated at %v Hz: |Δ| = %v", freq, d)
		}
	}
}

func cmplxAbs(c complex128) float64 {
	return math.Hypot(real(c), imag(c))
}

func TestCutoffButterworthCase(t *testing.T) {
	// Q = 1/sqrt2 (Butterworth): the -3 dB point is F0, |H(F0)| = 1/√2.
	f := mustFilter(t, Params{F0: 10e3, Q: 1 / math.Sqrt2, Gain: 1})
	if g := cmplx.Abs(f.Response(10e3)); math.Abs(g-1/math.Sqrt2) > 1e-12 {
		t.Fatalf("Butterworth |H(F0)| = %v, want 1/√2", g)
	}
}

func paperStimulus(t *testing.T) *wave.Multitone {
	t.Helper()
	m, err := wave.NewMultitone(0.5, 5e3, []int{1, 2, 3},
		[]float64{0.22, 0.13, 0.08}, []float64{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSteadyStateMatchesResponse(t *testing.T) {
	f := paperFilter(t)
	in := paperStimulus(t)
	out := f.SteadyState(in)
	if math.Abs(out.Offset-0.5) > 1e-12 {
		t.Fatalf("output offset = %v, want 0.5 (unity DC gain)", out.Offset)
	}
	if out.Period() != in.Period() {
		t.Fatalf("period changed: %v -> %v", in.Period(), out.Period())
	}
	for i, tone := range out.Tones {
		wantAmp := in.Tones[i].Amp * cmplx.Abs(f.Response(tone.Freq))
		if math.Abs(tone.Amp-wantAmp) > 1e-12 {
			t.Fatalf("tone %d amp = %v, want %v", i, tone.Amp, wantAmp)
		}
	}
}

func TestTransientConvergesToSteadyState(t *testing.T) {
	f := paperFilter(t)
	in := paperStimulus(t)
	ss := f.SteadyState(in)
	period := in.Period()
	// Settle until the exp(−ω0·t/(2Q)) envelope is below 1e-4.
	settle := int(math.Ceil(-2 * f.p.Q / f.w0 * math.Log(1e-4) / period))
	dur := period * float64(settle+1)
	dt := period / 2000
	rec := f.Transient(in, dur, dt)
	// Compare the last period against the analytic steady state.
	start := len(rec.T) - 2000
	worst := 0.0
	for i := start; i < len(rec.T); i++ {
		d := math.Abs(rec.V[i] - ss.Eval(rec.T[i]))
		if d > worst {
			worst = d
		}
	}
	if worst > 2e-4 {
		t.Fatalf("transient vs steady state worst error = %v", worst)
	}
}

func TestTransientStepDCGain(t *testing.T) {
	f := mustFilter(t, Params{F0: 1e3, Q: 0.7, Gain: 2.5})
	rec := f.Transient(wave.DC(1), 20e-3, 1e-6)
	final := rec.V[len(rec.V)-1]
	if math.Abs(final-2.5) > 1e-3 {
		t.Fatalf("step response settles to %v, want 2.5", final)
	}
}

// TestSettlingPeriods checks the SPICE CUT's settling span: plausible
// for the paper filter, longer for a higher Q, clamped to
// [1, maxSettlePeriods], and refused for invalid parameters.
func TestSettlingPeriods(t *testing.T) {
	settle := func(p Params) int {
		t.Helper()
		n, err := settlePeriods(p, 200e-6)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	n := settle(Params{F0: 10e3, Q: 0.9, Gain: 1})
	if n < 1 || n > maxSettlePeriods {
		t.Fatalf("settling periods = %d, implausible", n)
	}
	// A higher Q decays more slowly and needs more periods.
	if settle(Params{F0: 10e3, Q: 9, Gain: 1}) <= n {
		t.Fatal("higher Q should need more settling")
	}
	// An open RQ's huge Q hits the cap, and so does a Q whose exact
	// span overflows int; a fast filter still settles one period.
	for _, q := range []float64{1e6, 1e20} {
		if m := settle(Params{F0: 10e3, Q: q, Gain: 1}); m != maxSettlePeriods {
			t.Fatalf("Q = %g settles %d periods, want the cap %d", q, m, maxSettlePeriods)
		}
	}
	if m := settle(Params{F0: 1e9, Q: 0.5, Gain: 1}); m != 1 {
		t.Fatalf("fast filter settles %d periods, want 1", m)
	}
	if _, err := settlePeriods(Params{F0: 10e3, Q: 0, Gain: 1}, 200e-6); err == nil {
		t.Fatal("invalid parameters accepted")
	}
}

func TestTowThomasRoundTrip(t *testing.T) {
	p := Params{F0: 10e3, Q: 0.9, Gain: 1}
	comps, err := DesignTowThomas(p, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	back, err := comps.Params()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(back.F0-p.F0) > 1e-6*p.F0 ||
		math.Abs(back.Q-p.Q) > 1e-9 ||
		math.Abs(back.Gain-p.Gain) > 1e-9 {
		t.Fatalf("round trip %+v -> %+v", p, back)
	}
}

func TestTowThomasValidation(t *testing.T) {
	if _, err := DesignTowThomas(Params{F0: 1e3, Q: 1, Gain: 1}, 0); err == nil {
		t.Fatal("zero capacitor accepted")
	}
	if _, err := (Components{R: 0, RQ: 1, RG: 1, C: 1}).Params(); err == nil {
		t.Fatal("zero R accepted")
	}
}

func TestParametricFaultMovesF0(t *testing.T) {
	comps, _ := DesignTowThomas(Params{F0: 10e3, Q: 0.9, Gain: 1}, 1e-9)
	// +10% R: f0 drops by 1/1.1, Q drops (RQ/R), gain rises (R/RG).
	faulty := Fault{Kind: FaultParametric, Target: TargetR, Frac: 0.10}.Apply(comps)
	p, err := faulty.Params()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.F0-10e3/1.1) > 1 {
		t.Fatalf("faulty F0 = %v, want %v", p.F0, 10e3/1.1)
	}
	// -9.09% C gives the same f0 shift without touching Q or gain.
	cFault := Fault{Kind: FaultParametric, Target: TargetC, Frac: -1.0 / 11}.Apply(comps)
	pc, _ := cFault.Params()
	if math.Abs(pc.F0-11e3) > 1 {
		t.Fatalf("C-fault F0 = %v, want 11 kHz", pc.F0)
	}
	if math.Abs(pc.Q-0.9) > 1e-9 || math.Abs(pc.Gain-1) > 1e-9 {
		t.Fatalf("C fault leaked into Q/gain: %+v", pc)
	}
}

func TestCatastrophicFaults(t *testing.T) {
	comps, _ := DesignTowThomas(Params{F0: 10e3, Q: 0.9, Gain: 1}, 1e-9)
	open := Fault{Kind: FaultOpen, Target: TargetRQ}.Apply(comps)
	p, err := open.Params()
	if err != nil {
		t.Fatal(err)
	}
	if p.Q < 1e5 {
		t.Fatalf("open RQ should explode Q, got %v", p.Q)
	}
	short := Fault{Kind: FaultShort, Target: TargetC}.Apply(comps)
	ps, err := short.Params()
	if err != nil {
		t.Fatal(err)
	}
	if ps.F0 > 1 {
		t.Fatalf("shorted C should collapse f0, got %v", ps.F0)
	}
	if s := (Fault{Kind: FaultOpen, Target: TargetRQ}).String(); s != "open(RQ)" {
		t.Fatalf("fault string = %q", s)
	}
	if s := (Fault{Kind: FaultParametric, Target: TargetC, Frac: 0.05}).String(); s != "C+5.0%" {
		t.Fatalf("fault string = %q", s)
	}
}

// Property: |H| is maximal near/below f0 for modest Q and monotonically
// decreasing far above f0.
func TestRolloffMonotoneProperty(t *testing.T) {
	prop := func(qRaw, f0Raw uint8) bool {
		q := 0.5 + float64(qRaw)/255*1.5 // [0.5, 2]
		f0 := 1e3 * (1 + float64(f0Raw)/255*99)
		f, err := New(Params{F0: f0, Q: q, Gain: 1})
		if err != nil {
			return false
		}
		prev := math.Inf(1)
		for mult := 2.0; mult < 100; mult *= 1.5 {
			g := cmplx.Abs(f.Response(f0 * mult))
			if g >= prev {
				return false
			}
			prev = g
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: steady-state output amplitude of any tone never exceeds
// Gain·Q·input (resonant peak bound for Q >= 1/sqrt2) nor input·Gain·1.16.
func TestSteadyStateBoundProperty(t *testing.T) {
	f := paperFilter(t)
	prop := func(h uint8) bool {
		harm := 1 + int(h%6)
		in, err := wave.NewMultitone(0.5, 2e3, []int{harm}, []float64{0.1}, []float64{0})
		if err != nil {
			return false
		}
		out := f.SteadyState(in)
		peak := 0.1 * 1.16 // paperFilter has Gain·max(1, Q) = 1
		return out.Tones[0].Amp <= peak
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBandpassResponse(t *testing.T) {
	f := paperFilter(t)
	// |H_BP(f0)| = Gain = 1 by normalization; phase at f0 is 0.
	if g := cmplx.Abs(f.ResponseBP(10e3)); math.Abs(g-1) > 1e-9 {
		t.Fatalf("|H_BP(f0)| = %v, want 1", g)
	}
	h := f.ResponseBP(10e3)
	if math.Abs(cmplxAbs(h-complex(1, 0))) > 1e-9 {
		t.Fatalf("H_BP(f0) = %v, want 1+0i", h)
	}
	// Band-pass: vanishes at DC and rolls off at high frequency.
	if cmplx.Abs(f.ResponseBP(1)) > 1e-3 {
		t.Fatal("BP response at ~DC should vanish")
	}
	if cmplx.Abs(f.ResponseBP(1e6)) > 0.02 {
		t.Fatal("BP response far above f0 should vanish")
	}
}

func TestSteadyStateBP(t *testing.T) {
	f := paperFilter(t)
	in := paperStimulus(t)
	out := f.SteadyStateBP(in, 0.5)
	if out.Offset != 0.5 {
		t.Fatalf("rebias = %v, want 0.5", out.Offset)
	}
	if out.Period() != in.Period() {
		t.Fatal("period changed")
	}
	for i, tone := range out.Tones {
		want := in.Tones[i].Amp * cmplx.Abs(f.ResponseBP(tone.Freq))
		if math.Abs(tone.Amp-want) > 1e-12 {
			t.Fatalf("tone %d amp = %v, want %v", i, tone.Amp, want)
		}
	}
}

func TestFaultStringAll(t *testing.T) {
	for _, c := range []struct {
		f    Fault
		want string
	}{
		{Fault{Kind: FaultOpen, Target: TargetR}, "open(R)"},
		{Fault{Kind: FaultShort, Target: TargetRG}, "short(RG)"},
		{Fault{Kind: FaultParametric, Target: TargetRQ, Frac: -0.1}, "RQ-10.0%"},
	} {
		if got := c.f.String(); got != c.want {
			t.Fatalf("String = %q, want %q", got, c.want)
		}
	}
	if TargetR.String() != "R" || TargetC.String() != "C" {
		t.Fatal("target names wrong")
	}
}
