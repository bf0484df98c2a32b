package core

import (
	"context"
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
// plus bisection must reproduce the scalar exact extraction, for the
// golden CUT and for shifted ones, on both observations.
func TestBatchedExactSignatureBitIdentical(t *testing.T) {
	for _, obs := range []Observation{ObserveLP, ObserveBP} {
		batched, scalar := Default(), scalarTwin()
		batched.Observe, scalar.Observe = obs, obs
		for _, shift := range []float64{0, 0.10, -0.07} {
			cb, err := batched.Shifted(shift)
			if err != nil {
				t.Fatal(err)
			}
			cs, err := scalar.Shifted(shift)
			if err != nil {
				t.Fatal(err)
			}
			sb, err := batched.ExactSignature(cb)
			if err != nil {
				t.Fatal(err)
			}
			ss, err := scalar.ExactSignature(cs)
			if err != nil {
				t.Fatal(err)
			}
			equalSigs(t, obs.String(), sb, ss)
		}
	}
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
// reusing its scratch across trials).
func TestBatchedAveragedNDFBitIdentical(t *testing.T) {
	batched, scalar := Default(), scalarTwin()
	cb, err := batched.Shifted(0.02)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := scalar.Shifted(0.02)
	if err != nil {
		t.Fatal(err)
	}
	const periods = 4
	want, err := scalar.AveragedNDFScratch(cs, 0.005, rng.New(9), periods, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := batched.AveragedNDFScratch(cb, 0.005, rng.New(9), periods, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("batched %v, scalar %v", got, want)
	}
	for _, workers := range []int{1, 2, 7} {
		vals, err := campaign.Collect(context.Background(), campaign.Engine{Workers: workers}, 9,
			NewTrialScratch, func(_ int, sc *TrialScratch) (float64, error) {
				return batched.AveragedNDFScratch(cb, 0.005, rng.New(9), periods, sc)
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
