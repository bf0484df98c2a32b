package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/campaign"
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

// scalarTwin returns a fresh default system running the retained scalar
// pipeline — the reference the batched engine must match bit for bit.
func scalarTwin() *System {
	s := Default()
	s.Scalar = true
	return s
}

// TestBatchedExactSignatureBitIdentical: the LUT-classified scan grid
// plus the LUT-classified bisection must reproduce the scalar exact
// extraction bit for bit:
//   - the golden CUT and shifted ones, on both observations;
//   - yield-style component dies, extracted on one reused scratch as a
//     campaign worker does;
//   - a +50 % gain CUT, whose low-pass output spans y ≈ 0.31–1.25, so
//     scan points and bisection midpoints leave the LUT grid;
//   - dies on the SPICE backend, whose output is a sampled waveform.
func TestBatchedExactSignatureBitIdentical(t *testing.T) {
	check := func(name string, batched, scalar *System, d Deviation, sc *TrialScratch) {
		t.Helper()
		cb, err := batched.Deviated(d)
		if err != nil {
			t.Fatal(err)
		}
		cs, err := scalar.Deviated(d)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := batched.exactSignature(cb, sc)
		if err != nil {
			t.Fatal(err)
		}
		ss, err := scalar.ExactSignature(cs)
		if err != nil {
			t.Fatal(err)
		}
		equalSigs(t, name, sb, ss)
	}
	for _, obs := range []Observation{ObserveLP, ObserveBP} {
		batched, scalar := Default(), scalarTwin()
		batched.Observe, scalar.Observe = obs, obs
		for _, shift := range []float64{0, 0.10, -0.07} {
			check(obs.String(), batched, scalar, Deviation{F0Shift: shift}, nil)
		}
	}
	batched, scalar := Default(), scalarTwin()
	offGrid := Deviation{GainShift: 0.5}
	if hi := outputMax(t, batched, offGrid); hi < 1 {
		t.Fatalf("gain +50 %% output peaks at y = %.3f, want it past the LUT grid's edge y = 1", hi)
	}
	check("gain +50 %", batched, scalar, offGrid, nil)
	sc := NewTrialScratch()
	for i, d := range componentDies(64, 0.05) {
		check(fmt.Sprintf("die %d (%v)", i, d), batched, scalar, d, sc)
	}
	spiceBatched, err := DefaultSpice()
	if err != nil {
		t.Fatal(err)
	}
	spiceScalar, err := DefaultSpice()
	if err != nil {
		t.Fatal(err)
	}
	spiceScalar.Scalar = true
	sc = NewTrialScratch()
	for i, d := range componentDies(3, 0.05) {
		check(fmt.Sprintf("spice die %d (%v)", i, d), spiceBatched, spiceScalar, d, sc)
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
	ts, _, err := s.scans()
	if err != nil {
		t.Fatal(err)
	}
	hi := math.Inf(-1)
	for _, tm := range ts {
		hi = math.Max(hi, out.Eval(tm))
	}
	return hi
}

// TestBatchedCaptureBitIdentical: noiseless and noisy clocked captures
// must match the scalar pipeline exactly — same RNG substream, same
// draws, same codes, same entries.
func TestBatchedCaptureBitIdentical(t *testing.T) {
	batched, scalar := Default(), scalarTwin()
	cb, err := batched.Shifted(0.10)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := scalar.Shifted(0.10)
	if err != nil {
		t.Fatal(err)
	}
	// Noiseless.
	sb, err := batched.CapturedSignature(cb, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := scalar.CapturedSignature(cs, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	equalSigs(t, "noiseless", sb, ss)
	// Noisy, same substream on both paths.
	for seed := uint64(1); seed <= 4; seed++ {
		sb, err := batched.CapturedSignature(cb, 0.005, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		ss, err := scalar.CapturedSignature(cs, 0.005, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		equalSigs(t, "noisy", sb, ss)
	}
	// Scratch-backed capture equals the one-shot capture.
	sc := NewTrialScratch()
	for seed := uint64(1); seed <= 3; seed++ {
		warm, err := batched.capturedSignature(cb, 0.005, rng.New(seed), sc)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := batched.CapturedSignature(cb, 0.005, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		equalSigs(t, "scratch", warm, fresh)
	}
}

// TestBatchedAveragedNDFBitIdentical: the averaged campaign measurement
// must agree with the scalar engine, with and without caller scratch,
// and as the trial of a campaign pool at any worker count (each worker
// reusing its scratch across trials and sharing one noise plan).
func TestBatchedAveragedNDFBitIdentical(t *testing.T) {
	batched, scalar := Default(), scalarTwin()
	pb, ps := noisePlan(t, batched, Deviation{F0Shift: 0.02}, 0.005), noisePlan(t, scalar, Deviation{F0Shift: 0.02}, 0.005)
	const periods = 4
	want, err := ps.AveragedNDF(rng.New(9), periods, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pb.AveragedNDF(rng.New(9), periods, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("batched %v, scalar %v", got, want)
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

// TestBatchedSweepF0BitIdentical: the Fig. 8 sweep must be identical on
// both engines and at any worker count.
func TestBatchedSweepF0BitIdentical(t *testing.T) {
	batched, scalar := Default(), scalarTwin()
	shifts := []float64{-0.15, -0.05, 0, 0.03, 0.12}
	want, err := scalar.SweepF0Ctx(context.Background(), shifts, campaign.Engine{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		got, err := batched.SweepF0Ctx(context.Background(), shifts, campaign.Engine{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers %d, shift %g: batched %v, scalar %v",
					workers, shifts[i], got[i], want[i])
			}
		}
	}
}

// TestTrialScratchIsolation: a scratch reused across different CUTs must
// never leak one trial's state into the next.
func TestTrialScratchIsolation(t *testing.T) {
	sys := Default()
	sc := NewTrialScratch()
	shifts := []float64{0.10, -0.08, 0.01, 0.10}
	for _, shift := range shifts {
		cut, err := sys.Shifted(shift)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := sys.capturedSignature(cut, 0, nil, sc)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := sys.CapturedSignature(cut, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		equalSigs(t, "scratch isolation", warm, fresh)
	}
}

// TestAveragedNDFScratchWarmAllocation: with its noise plan built, a
// noisy averaged NDF on a warm trial scratch allocates nothing but each
// period's noise substream (one Split per period).
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
	if allocs != periods {
		t.Fatalf("warm AveragedNDF makes %v allocations per call, want %d (one Split per period)", allocs, periods)
	}
}
