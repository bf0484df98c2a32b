package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/biquad"
	"repro/internal/campaign"
	"repro/internal/monitor"
	"repro/internal/ndf"
	"repro/internal/rng"
	"repro/internal/signature"
	"repro/internal/wave"
)

func TestDefaultSystemBasics(t *testing.T) {
	s := Default()
	if math.Abs(s.Period()-200e-6) > 1e-12 {
		t.Fatalf("period = %v, want 200 µs", s.Period())
	}
	if s.Bank.Size() != 6 {
		t.Fatalf("bank size = %d, want 6", s.Bank.Size())
	}
}

func TestNewSystemValidation(t *testing.T) {
	s := Default()
	if _, err := NewSystem(nil, s.CUT, s.Bank, s.Capture); err == nil {
		t.Fatal("nil stimulus accepted")
	}
	if _, err := NewSystem(s.Stimulus, nil, s.Bank, s.Capture); err == nil {
		t.Fatal("nil CUT accepted")
	}
	if _, err := NewSystem(s.Stimulus, s.CUT, nil, s.Capture); err == nil {
		t.Fatal("nil bank accepted")
	}
	if _, err := NewSystem(s.Stimulus, s.CUT, s.Bank, signature.CaptureConfig{}); err == nil {
		t.Fatal("invalid capture accepted")
	}
	for _, clock := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := NewSystem(s.Stimulus, s.CUT, s.Bank, signature.CaptureConfig{ClockHz: clock, CounterBits: 16}); err == nil {
			t.Fatalf("clock %g accepted", clock)
		}
	}
	if _, err := NewSystem(s.Stimulus, s.CUT, s.Bank, s.Capture); err != nil {
		t.Fatalf("valid system rejected: %v", err)
	}
	// A clock whose capture an int cannot count fails as too long before
	// any tick grid is allocated: at construction, and at capture time
	// when Capture is set afterwards.
	tooLong := signature.CaptureConfig{ClockHz: 1e30, CounterBits: 16}
	if _, err := NewSystem(s.Stimulus, s.CUT, s.Bank, tooLong); err == nil || !strings.Contains(err.Error(), "too long") {
		t.Fatalf("1e30 Hz system: error %v, want a too-long capture", err)
	}
	fast := Default()
	fast.Capture = tooLong
	if _, err := fast.CapturedSignature(s.CUT, 0, nil); err == nil || !strings.Contains(err.Error(), "too long") {
		t.Fatalf("1e30 Hz capture: error %v, want a too-long capture", err)
	}
}

// TestCaptureTickBound: a capture of more than MaxTicks ticks is
// refused with an error, never a failed allocation. NewSystem refuses
// it; a system whose Capture was set past the bound afterwards fails
// CapturedSignature and NoisePlan; a capture of exactly MaxTicks ticks
// is accepted.
func TestCaptureTickBound(t *testing.T) {
	s := Default()
	T := s.Period()
	over := signature.CaptureConfig{ClockHz: 1e20, CounterBits: 16}
	if _, err := NewSystem(s.Stimulus, s.CUT, s.Bank, over); err == nil || !strings.Contains(err.Error(), "ticks") {
		t.Fatalf("1e20 Hz system: error %v, want the tick-bound error", err)
	}
	edge := signature.CaptureConfig{ClockHz: MaxTicks / T, CounterBits: 16}
	past := signature.CaptureConfig{ClockHz: (MaxTicks + 1) / T, CounterBits: 16}
	if _, err := NewSystem(s.Stimulus, s.CUT, s.Bank, past); err == nil || !strings.Contains(err.Error(), "ticks") {
		t.Fatalf("MaxTicks+1 ticks: error %v, want the tick-bound error", err)
	}
	at, err := NewSystem(s.Stimulus, s.CUT, s.Bank, edge)
	if err != nil {
		t.Fatalf("MaxTicks ticks refused: %v", err)
	}
	if ts, _, err := at.ticks(); err != nil || len(ts) != MaxTicks {
		t.Fatalf("MaxTicks capture: %d ticks, error %v", len(ts), err)
	}
	for _, cfg := range []signature.CaptureConfig{over, past} {
		late := Default()
		late.Capture = cfg
		if _, err := late.CapturedSignature(late.CUT, 0.005, rng.New(1)); err == nil || !strings.Contains(err.Error(), "ticks") {
			t.Fatalf("%g Hz set after construction: CapturedSignature error %v, want the tick-bound error", cfg.ClockHz, err)
		}
		if _, err := late.NoisePlan(late.CUT, 0.005); err == nil || !strings.Contains(err.Error(), "ticks") {
			t.Fatalf("%g Hz set after construction: NoisePlan error %v, want the tick-bound error", cfg.ClockHz, err)
		}
	}
}

func TestGoldenSignatureCached(t *testing.T) {
	s := Default()
	a, err := s.GoldenSignature()
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.GoldenSignature()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("golden signature not cached")
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGoldenNDFIsZero(t *testing.T) {
	s := Default()
	v, err := s.NDFOfShift(0)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Fatalf("NDF of golden vs golden = %v, want 0", v)
	}
}

func TestHeadlineNDFPlus10(t *testing.T) {
	s := Default()
	v, err := s.NDFOfShift(0.10)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: NDF = 0.1021 for the +10% shift. Our simulated substrate
	// must land in the same band.
	if v < 0.05 || v > 0.2 {
		t.Fatalf("NDF(+10%%) = %v, want ~0.1 (paper: 0.1021)", v)
	}
}

func TestSweepShape(t *testing.T) {
	s := Default()
	devs := []float64{-0.2, -0.1, -0.05, 0, 0.05, 0.1, 0.2}
	ndfs, err := s.SweepF0Ctx(context.Background(), devs, campaign.Engine{})
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 8 shape: zero at origin, increasing with |dev|, roughly
	// symmetric (within a factor 2 between ±|dev|).
	if ndfs[3] != 0 {
		t.Fatalf("NDF(0) = %v", ndfs[3])
	}
	for i := 0; i < 3; i++ {
		if ndfs[i] <= ndfs[i+1] && !(i == 2 && ndfs[i] <= ndfs[3]) {
			// left side must decrease toward 0
			if !(ndfs[i] > ndfs[i+1]) {
				t.Fatalf("left branch not decreasing: %v", ndfs)
			}
		}
	}
	for i := 4; i < len(ndfs)-1; i++ {
		if ndfs[i] >= ndfs[i+1] {
			t.Fatalf("right branch not increasing: %v", ndfs)
		}
	}
	for i := 0; i < 3; i++ {
		l, r := ndfs[2-i], ndfs[4+i]
		if l > 2.5*r || r > 2.5*l {
			t.Fatalf("asymmetry beyond paper's 'quite symmetric': %v vs %v", l, r)
		}
	}
}

func TestCapturedMatchesExactNoiseless(t *testing.T) {
	s := Default()
	cut, err := s.Shifted(0.10)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := s.ExactSignature(cut)
	if err != nil {
		t.Fatal(err)
	}
	capd, err := s.CapturedSignature(cut, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := s.GoldenSignature()
	ve, err := ndf.NDF(exact, g)
	if err != nil {
		t.Fatal(err)
	}
	vc, err := ndf.NDF(capd, g)
	if err != nil {
		t.Fatal(err)
	}
	// Clock quantization error bound: one tick per transition.
	if math.Abs(ve-vc) > 0.01 {
		t.Fatalf("captured NDF %v deviates from exact %v", vc, ve)
	}
}

func TestNoiseRaisesFloorButKeepsOrder(t *testing.T) {
	s := Default()
	sigma := 0.005 // 3σ = 0.015 V, the paper's noise experiment
	g, _ := s.GoldenSignature()
	nullSig, err := s.CapturedSignature(s.CUT, sigma, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	nullNDF, err := ndf.NDF(nullSig, g)
	if err != nil {
		t.Fatal(err)
	}
	shifted, err := s.Shifted(0.05)
	if err != nil {
		t.Fatal(err)
	}
	devSig, err := s.CapturedSignature(shifted, sigma, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	devNDF, err := ndf.NDF(devSig, g)
	if err != nil {
		t.Fatal(err)
	}
	if nullNDF <= 0 {
		t.Fatal("noise should produce a nonzero NDF floor")
	}
	if devNDF <= nullNDF {
		t.Fatalf("5%% deviation (NDF %v) not above noise floor (%v)", devNDF, nullNDF)
	}
}

func TestCalibrateAndTest(t *testing.T) {
	s := Default()
	dec, err := s.CalibrateFromToleranceCtx(context.Background(), 0.05, 9, campaign.Engine{})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Threshold <= 0 {
		t.Fatalf("threshold = %v", dec.Threshold)
	}
	// A golden CUT passes; a +15% CUT fails.
	good, err := s.Test(s.CUT, dec, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !good.Pass {
		t.Fatalf("golden CUT rejected: NDF %v vs threshold %v", good.NDF, dec.Threshold)
	}
	shifted, err := s.Shifted(0.15)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := s.Test(shifted, dec, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bad.Pass {
		t.Fatalf("+15%% CUT accepted: NDF %v vs threshold %v", bad.NDF, dec.Threshold)
	}
}

func TestLissajousAccessor(t *testing.T) {
	s := Default()
	c, err := s.Lissajous(s.CUT)
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.CommonPeriod()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-s.Period()) > 1e-12 {
		t.Fatalf("curve period %v != system period %v", p, s.Period())
	}
	if _, err := s.Deviated(Deviation{F0Shift: -1}); err == nil {
		t.Fatal("invalid deviation accepted")
	}
}

func TestCustomBankSystem(t *testing.T) {
	// A one-monitor bank still works end to end.
	s := Default()
	single := monitor.NewBank(monitor.MustAnalytic(monitor.TableI()[2]))
	sys, err := NewSystem(s.Stimulus, s.CUT, single, s.Capture)
	if err != nil {
		t.Fatal(err)
	}
	v, err := sys.NDFOfShift(0.10)
	if err != nil {
		t.Fatal(err)
	}
	full, err := s.NDFOfShift(0.10)
	if err != nil {
		t.Fatal(err)
	}
	if v <= 0 || v >= full {
		t.Fatalf("single-monitor NDF %v should be positive and below full bank %v", v, full)
	}
}

func TestStimulusWithinRails(t *testing.T) {
	s := Default()
	lo, hi := s.Stimulus.PeakToPeak()
	if lo < 0 || hi > 1 {
		t.Fatalf("stimulus range [%v,%v] leaves the monitor's unit square", lo, hi)
	}
	f, err := biquad.New(s.Golden())
	if err != nil {
		t.Fatal(err)
	}
	out := f.SteadyState(s.Stimulus)
	rec := wave.SamplePeriods(out, 1, 4000)
	for _, v := range rec.V {
		if v < 0 || v > 1 {
			t.Fatalf("filter output %v leaves unit square", v)
		}
	}
}
