package biquad

import (
	"math"
	"math/cmplx"
	"strings"
	"testing"

	"repro/internal/wave"
)

func paperCUT(t *testing.T) *AnalyticCUT {
	t.Helper()
	c, err := NewAnalyticCUT(Params{F0: 10e3, Q: 0.9, Gain: 1})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func cutStimulus(t *testing.T) *wave.Multitone {
	t.Helper()
	m, err := wave.NewMultitone(0.5, 5e3, []int{1, 2, 3},
		[]float64{0.22, 0.13, 0.08}, []float64{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestAnalyticCUTPerturbBehavioural(t *testing.T) {
	cut := paperCUT(t)
	d, err := cut.Perturb(Deviation{F0Shift: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	// Must match the historical WithF0Shift arithmetic bit for bit.
	if want := cut.Params().WithF0Shift(0.10).F0; d.Params().F0 != want {
		t.Fatalf("F0 after shift = %v, want %v", d.Params().F0, want)
	}
	if d.Params().Q != cut.Params().Q || d.Params().Gain != cut.Params().Gain {
		t.Fatal("pure f0 shift moved Q or gain")
	}
	multi, err := cut.Perturb(Deviation{F0Shift: 0.05, QShift: -0.1, GainShift: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	p := multi.Params()
	if math.Abs(p.Q-0.9*0.9) > 1e-15 || math.Abs(p.Gain-1.02) > 1e-15 {
		t.Fatalf("multi-parameter shift wrong: %+v", p)
	}
	if _, err := cut.Perturb(Deviation{F0Shift: -1}); err == nil {
		t.Fatal("invalid deviation accepted")
	}
}

func TestAnalyticCUTPerturbComponentLevel(t *testing.T) {
	cut := paperCUT(t)
	// A parametric R fault and the equivalent component drift must agree.
	f := Fault{Kind: FaultParametric, Target: TargetR, Frac: 0.10}
	viaFault, err := cut.Perturb(Deviation{Fault: &f})
	if err != nil {
		t.Fatal(err)
	}
	viaDrift, err := cut.Perturb(Deviation{RDrift: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	if viaFault.Params() != viaDrift.Params() {
		t.Fatalf("fault %+v vs drift %+v diverge", viaFault.Params(), viaDrift.Params())
	}
	// R drift moves f0 down and gain up, leaves Q (RQ/R shifts... Q = RQ/R).
	p := viaDrift.Params()
	if !(p.F0 < cut.Params().F0 && p.Gain > cut.Params().Gain) {
		t.Fatalf("R drift moved parameters the wrong way: %+v", p)
	}
	// The historical campaign arithmetic: drift the designed components
	// directly and re-derive.
	comps, err := DesignTowThomas(cut.Params(), DefaultCapacitorF)
	if err != nil {
		t.Fatal(err)
	}
	comps.R *= 1.10
	want, err := comps.Params()
	if err != nil {
		t.Fatal(err)
	}
	if p != want {
		t.Fatalf("component drift params %+v, want %+v", p, want)
	}
}

func TestCUTDescribe(t *testing.T) {
	cut := paperCUT(t)
	if !strings.Contains(cut.Describe(), "analytic") {
		t.Fatalf("describe: %s", cut.Describe())
	}
	sp, err := NewSpiceCUTFromParams(cut.Params(), SpiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sp.Describe(), "SPICE") {
		t.Fatalf("describe: %s", sp.Describe())
	}
	if d := sp.Params().F0 - cut.Params().F0; math.Abs(d) > 1e-9 {
		t.Fatalf("backends disagree on golden f0 by %v", d)
	}
}

// TestSpiceCUTOutputMatchesAnalytic cross-validates the two backends at
// waveform level: the SPICE transient steady state must track the exact
// closed-form output within the integrator's accuracy budget, for both
// observations.
func TestSpiceCUTOutputMatchesAnalytic(t *testing.T) {
	stim := cutStimulus(t)
	ana := paperCUT(t)
	sp, err := NewSpiceCUTFromParams(ana.Params(), SpiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, out := range []Output{OutputLP, OutputBP} {
		wa, err := ana.Output(stim, out)
		if err != nil {
			t.Fatal(err)
		}
		ws, err := sp.Output(stim, out)
		if err != nil {
			t.Fatal(err)
		}
		if ws.Period() != stim.Period() {
			t.Fatalf("SPICE output period %v != stimulus %v", ws.Period(), stim.Period())
		}
		worst := 0.0
		T := stim.Period()
		for i := 0; i < 4000; i++ {
			tt := T * float64(i) / 4000
			if d := math.Abs(wa.Eval(tt) - ws.Eval(tt)); d > worst {
				worst = d
			}
		}
		if worst > 2e-3 {
			t.Fatalf("output %v: worst SPICE-vs-analytic waveform error %v V", out, worst)
		}
	}
}

// TestSpiceCUTOutputCached pins the concurrency contract: repeated
// Output calls return the same cached waveform.
func TestSpiceCUTOutputCached(t *testing.T) {
	stim := cutStimulus(t)
	sp, err := NewSpiceCUTFromParams(Params{F0: 10e3, Q: 0.9, Gain: 1}, SpiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := sp.Output(stim, OutputLP)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sp.Output(stim, OutputLP)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("Output not cached")
	}
}

// TestSpiceCUTCacheIsPerStimulus guards against stale cache hits when
// one CUT is asked about two different stimuli that share a period (the
// stimulus-optimization study does exactly this with phase variants).
func TestSpiceCUTCacheIsPerStimulus(t *testing.T) {
	base := cutStimulus(t)
	shifted, err := wave.NewMultitone(0.5, 5e3, []int{1, 2, 3},
		[]float64{0.22, 0.13, 0.08}, []float64{0, 1.0, 2.0})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewSpiceCUTFromParams(Params{F0: 10e3, Q: 0.9, Gain: 1}, SpiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	wa, err := sp.Output(base, OutputLP)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := sp.Output(shifted, OutputLP)
	if err != nil {
		t.Fatal(err)
	}
	if wa == wb {
		t.Fatal("same cached waveform returned for two different stimuli")
	}
	// The two responses genuinely differ (phases moved the waveform).
	diff := 0.0
	for i := 0; i < 200; i++ {
		tt := base.Period() * float64(i) / 200
		if d := math.Abs(wa.Eval(tt) - wb.Eval(tt)); d > diff {
			diff = d
		}
	}
	if diff < 1e-3 {
		t.Fatalf("responses to different stimuli suspiciously close (max diff %v)", diff)
	}
}

// TestSpiceCUTFaultedStillSimulates exercises the catastrophic corners
// of the netlist backend: opens and shorts must still produce a finite
// periodic waveform (the campaign depends on it).
func TestSpiceCUTFaultedStillSimulates(t *testing.T) {
	if testing.Short() {
		t.Skip("catastrophic-fault transients are slower")
	}
	stim := cutStimulus(t)
	root, err := NewSpiceCUTFromParams(Params{F0: 10e3, Q: 0.9, Gain: 1}, SpiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []Fault{
		{Kind: FaultOpen, Target: TargetRQ},
		{Kind: FaultShort, Target: TargetR},
		{Kind: FaultOpen, Target: TargetC},
		{Kind: FaultShort, Target: TargetRG},
	} {
		f := f
		cut, err := root.Perturb(Deviation{Fault: &f})
		if err != nil {
			t.Fatalf("fault %s: %v", f, err)
		}
		w, err := cut.Output(stim, OutputLP)
		if err != nil {
			t.Fatalf("fault %s: %v", f, err)
		}
		for i := 0; i < 100; i++ {
			v := w.Eval(stim.Period() * float64(i) / 100)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("fault %s: non-finite output %v", f, v)
			}
		}
	}
}

// TestCircuitResponseMatchesAnalyticAcrossBand is the AC-side
// cross-validation: |H| of the realized netlist must track the analytic
// transfer function over a log-spaced grid spanning the band, for both
// the low-pass and band-pass outputs. (The band-pass node carries
// −Q·H_BP of the analytic normalization.)
func TestCircuitResponseMatchesAnalyticAcrossBand(t *testing.T) {
	p := Params{F0: 10e3, Q: 0.9, Gain: 1}
	comps, err := DesignTowThomas(p, DefaultCapacitorF)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	var freqs []float64
	for fr := 100.0; fr <= 1e6; fr *= math.Pow(10, 0.25) {
		freqs = append(freqs, fr)
	}
	lp, err := comps.CircuitResponse("lp", freqs)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := comps.CircuitResponse("bp", freqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, fr := range freqs {
		wantLP := cmplx.Abs(f.Response(fr))
		if d := math.Abs(lp[i] - wantLP); d > 1e-3*wantLP+1e-9 {
			t.Fatalf("LP |H| at %v Hz: circuit %v vs analytic %v", fr, lp[i], wantLP)
		}
		wantBP := p.Q * cmplx.Abs(f.ResponseBP(fr))
		if d := math.Abs(bp[i] - wantBP); d > 1e-3*wantBP+1e-9 {
			t.Fatalf("BP |H| at %v Hz: circuit %v vs analytic %v", fr, bp[i], wantBP)
		}
	}
}
