package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/campaign"
	"repro/internal/ndf"
	"repro/internal/rng"
	"repro/internal/signature"
)

func equalSigs(t *testing.T, name string, a, b *signature.Signature) {
	t.Helper()
	if a.Period != b.Period {
		t.Fatalf("%s: period %v vs %v", name, a.Period, b.Period)
	}
	if len(a.Entries) != len(b.Entries) {
		t.Fatalf("%s: %d entries vs %d", name, len(a.Entries), len(b.Entries))
	}
	for i := range a.Entries {
		if a.Entries[i] != b.Entries[i] {
			t.Fatalf("%s: entry %d %v vs %v", name, i, a.Entries[i], b.Entries[i])
		}
	}
}

// refExact is the per-point reference of ExactSignature: Classify at
// every scan point and every bisection midpoint.
func refExact(s *System, c CUT) (*signature.Signature, error) {
	cls, err := s.Classifier(c, 0, nil)
	if err != nil {
		return nil, err
	}
	return signature.Exact(cls, s.Period(), s.ScanN, 0)
}

// refCapture is the per-tick reference of a clocked capture: at every
// tick x + Gauss(0, eff) and y + Gauss(0, eff) from noise (none when
// noise is nil or sigma ≤ 0), Classify, and the capture walk.
func refCapture(s *System, c CUT, sigma float64, noise *rng.Stream, buf *signature.CaptureBuffer) (*signature.Signature, error) {
	cls, err := s.Classifier(c, sigma, noise)
	if err != nil {
		return nil, err
	}
	return signature.CaptureCanonical(cls, s.Period(), s.Capture, buf)
}

// refAveragedNDF is the per-tick reference of NoisePlan.AveragedNDF:
// refCapture of each period on noise.Split(k), its NDF against the
// reference golden signature, summed in period order.
func refAveragedNDF(s *System, c CUT, sigma float64, noise *rng.Stream, periods int) (float64, error) {
	periods = max(periods, 1)
	g, err := refExact(s, s.CUT)
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for k := 0; k < periods; k++ {
		var src *rng.Stream
		if noise != nil {
			src = noise.Split(uint64(k))
		}
		obs, err := refCapture(s, c, sigma, src, nil)
		if err != nil {
			return 0, err
		}
		v, err := ndf.NDF(obs, g)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum / float64(periods), nil
}

// TestBatchedExactSignatureBitIdentical: the LUT-classified scan grid
// plus the LUT-classified bisection must reproduce the per-point
// reference extraction (refExact) bit for bit:
//   - the golden CUT and shifted ones, on both observations;
//   - yield-style component dies, extracted on one reused scratch as a
//     campaign worker does;
//   - a +50 % gain CUT, whose low-pass output spans y ≈ 0.31–1.25, so
//     scan points and bisection midpoints leave the LUT grid;
//   - dies on the SPICE backend, whose output is a sampled waveform.
func TestBatchedExactSignatureBitIdentical(t *testing.T) {
	check := func(name string, sys *System, d Deviation, sc *TrialScratch) {
		t.Helper()
		c, err := sys.Deviated(d)
		if err != nil {
			t.Fatal(err)
		}
		out, err := sys.outputScratch(c, sc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sys.exactOf(out, sc)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refExact(sys, c)
		if err != nil {
			t.Fatal(err)
		}
		equalSigs(t, name, got, want)
	}
	for _, obs := range []Observation{ObserveLP, ObserveBP} {
		sys := Default()
		sys.Observe = obs
		for _, shift := range []float64{0, 0.10, -0.07} {
			check(obs.String(), sys, Deviation{F0Shift: shift}, nil)
		}
	}
	sys := Default()
	offGrid := Deviation{GainShift: 0.5}
	if hi := outputMax(t, sys, offGrid); hi < 1 {
		t.Fatalf("gain +50 %% output peaks at y = %.3f, want it past the LUT grid's edge y = 1", hi)
	}
	check("gain +50 %", sys, offGrid, nil)
	sc := NewTrialScratch()
	for i, d := range componentDies(64, 0.05) {
		check(fmt.Sprintf("die %d (%v)", i, d), sys, d, sc)
	}
	spice, err := DefaultSpice()
	if err != nil {
		t.Fatal(err)
	}
	sc = NewTrialScratch()
	for i, d := range componentDies(3, 0.05) {
		check(fmt.Sprintf("spice die %d (%v)", i, d), spice, d, sc)
	}
}

// componentDies draws n yield-style dies: the four component drifts at
// the given sigma, in the yield campaign's draw order.
func componentDies(n int, sigma float64) []Deviation {
	src := rng.New(41)
	dies := make([]Deviation, n)
	for i := range dies {
		dies[i] = Deviation{
			RDrift:  src.Gauss(0, sigma),
			RQDrift: src.Gauss(0, sigma),
			RGDrift: src.Gauss(0, sigma),
			CDrift:  src.Gauss(0, sigma),
		}
	}
	return dies
}

// outputMax returns the largest observed output sample on the scan grid
// of the golden CUT deviated by d.
func outputMax(t *testing.T, s *System, d Deviation) float64 {
	t.Helper()
	c, err := s.Deviated(d)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.output(c)
	if err != nil {
		t.Fatal(err)
	}
	hi := math.Inf(-1)
	for i := 0; i <= s.ScanN; i++ {
		hi = math.Max(hi, out.Eval(scanTime(s.Period(), i, s.ScanN)))
	}
	return hi
}

// TestBatchedCaptureBitIdentical: noiseless and noisy clocked captures
// must match the per-tick reference (refCapture) exactly — same RNG
// substream, same draws, same codes, same entries — on the low-pass and
// band-pass observations and on the SPICE backend; and a plan capture
// on a reused trial scratch must equal the one-shot capture.
func TestBatchedCaptureBitIdentical(t *testing.T) {
	lp, bp := Default(), Default()
	bp.Observe = ObserveBP
	spice, err := DefaultSpice()
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range []struct {
		name string
		s    *System
	}{{"low-pass", lp}, {"band-pass", bp}, {"spice", spice}} {
		c, err := sys.s.Shifted(0.10)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sys.s.CapturedSignature(c, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refCapture(sys.s, c, 0, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		equalSigs(t, sys.name+" noiseless", got, want)
		for _, sigma := range []float64{0.005, 0.02} {
			for seed := uint64(1); seed <= 4; seed++ {
				got, err := sys.s.CapturedSignature(c, sigma, rng.New(seed))
				if err != nil {
					t.Fatal(err)
				}
				want, err := refCapture(sys.s, c, sigma, rng.New(seed), nil)
				if err != nil {
					t.Fatal(err)
				}
				equalSigs(t, fmt.Sprintf("%s sigma %g seed %d", sys.name, sigma, seed), got, want)
			}
		}
	}
	// A plan capture on a reused scratch equals the one-shot capture.
	cb, err := lp.Shifted(0.10)
	if err != nil {
		t.Fatal(err)
	}
	p, err := lp.tickPlan(cb, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewTrialScratch()
	for seed := uint64(1); seed <= 3; seed++ {
		warm, err := p.capture(rng.New(seed), sc, &sc.capture)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := lp.CapturedSignature(cb, 0.005, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		equalSigs(t, "scratch", warm, fresh)
	}
}

// TestBatchedAveragedNDFBitIdentical: the averaged campaign measurement
// must agree with the per-tick reference (refAveragedNDF), with and
// without caller scratch, and as the trial of a campaign pool at any
// worker count (each worker reusing its scratch across trials and
// sharing one noise plan).
func TestBatchedAveragedNDFBitIdentical(t *testing.T) {
	sys := Default()
	pb := noisePlan(t, sys, Deviation{F0Shift: 0.02}, 0.005)
	const periods = 4
	want, err := refAveragedNDF(sys, pb.c, 0.005, rng.New(9), periods)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pb.AveragedNDF(rng.New(9), periods, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("plan %v, reference %v", got, want)
	}
	for _, workers := range []int{1, 2, 7} {
		vals, err := campaign.Collect(context.Background(), campaign.Engine{Workers: workers}, 9,
			NewTrialScratch, func(_ int, sc *TrialScratch) (float64, error) {
				return pb.AveragedNDF(rng.New(9), periods, sc)
			})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range vals {
			if v != want {
				t.Fatalf("workers %d trial %d: scratch form %v, want %v", workers, i, v, want)
			}
		}
	}
}

// TestBatchedSweepF0BitIdentical: the Fig. 8 sweep must equal the NDFs
// of the per-point reference signatures (refExact) at any worker count.
func TestBatchedSweepF0BitIdentical(t *testing.T) {
	sys := Default()
	shifts := []float64{-0.15, -0.05, 0, 0.03, 0.12}
	g, err := refExact(sys, sys.CUT)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(shifts))
	for i, shift := range shifts {
		c, err := sys.Shifted(shift)
		if err != nil {
			t.Fatal(err)
		}
		sig, err := refExact(sys, c)
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = ndf.NDF(sig, g); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 3} {
		got, err := sys.SweepF0Ctx(context.Background(), shifts, campaign.Engine{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers %d, shift %g: sweep %v, reference %v",
					workers, shifts[i], got[i], want[i])
			}
		}
	}
}

// TestTrialScratchIsolation: a scratch reused across different CUTs must
// never leak one trial's state into the next: every plan capture on the
// reused scratch, noiseless and noisy, equals the one-shot capture.
func TestTrialScratchIsolation(t *testing.T) {
	sys := Default()
	sc := NewTrialScratch()
	shifts := []float64{0.10, -0.08, 0.01, 0.10}
	for i, shift := range shifts {
		cut, err := sys.Shifted(shift)
		if err != nil {
			t.Fatal(err)
		}
		for _, sigma := range []float64{0, 0.005} {
			p, err := sys.tickPlan(cut, sigma)
			if err != nil {
				t.Fatal(err)
			}
			seed := uint64(i + 1)
			warm, err := p.capture(rng.New(seed), sc, &sc.capture)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := sys.CapturedSignature(cut, sigma, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			equalSigs(t, fmt.Sprintf("scratch isolation, shift %g sigma %g", shift, sigma), warm, fresh)
		}
	}
}

// TestAveragedNDFScratchWarmAllocation: with its noise plan built, a
// noisy averaged NDF on a warm trial scratch allocates nothing, each
// period's noise substream included (it lives in the scratch).
func TestAveragedNDFScratchWarmAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	p := noisePlan(t, Default(), Deviation{F0Shift: 0.02}, 0.005)
	const periods = 4
	sc, src := NewTrialScratch(), rng.New(3)
	if _, err := p.AveragedNDF(src, periods, sc); err != nil {
		t.Fatal(err) // warm the scratch
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := p.AveragedNDF(src, periods, sc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm AveragedNDF makes %v allocations per call, want 0", allocs)
	}
}
