package wave

import (
	"testing"

	"repro/internal/rng"
)

// TestEvalIntoMatchesScalar: every batch evaluator must be bit-identical
// to its scalar Eval, sample for sample.
func TestEvalIntoMatchesScalar(t *testing.T) {
	mt, err := NewMultitone(0.5, 5e3, []int{1, 2, 3},
		[]float64{0.22, 0.13, 0.08}, []float64{0, 0.3, -0.1})
	if err != nil {
		t.Fatal(err)
	}
	smp, err := NewSampled([]float64{0, 0.5, 1, 0.25}, 2e-4)
	if err != nil {
		t.Fatal(err)
	}
	waves := []Waveform{mt, smp}
	src := rng.New(17)
	ts := make([]float64, 512)
	for i := range ts {
		ts[i] = (src.Float64()*3 - 0.5) * 2e-4 // includes negative and wrapped times
	}
	out := make([]float64, len(ts))
	for _, w := range waves {
		if _, ok := w.(BatchEvaluator); !ok {
			t.Fatalf("%T does not implement BatchEvaluator", w)
		}
		EvalInto(w, ts, out)
		for i, tt := range ts {
			if want := w.Eval(tt); out[i] != want {
				t.Fatalf("%T at t=%v: batch %v, scalar %v", w, tt, out[i], want)
			}
		}
	}
}

// TestEvalIntoFallbackPreservesDrawOrder: stateful waveforms go through
// the scalar fallback, which draws noise in sample order — identical to
// a hand-written Eval loop with the same stream.
func TestEvalIntoFallbackPreservesDrawOrder(t *testing.T) {
	base := Sine{Amp: 0.3, Freq: 10e3, Offset: 0.5}
	ts := make([]float64, 64)
	for i := range ts {
		ts[i] = float64(i) * 1e-6
	}
	n1 := &Noisy{Base: base, Sigma: 0.01, Src: rng.New(5)}
	got := make([]float64, len(ts))
	EvalInto(n1, ts, got)
	n2 := &Noisy{Base: base, Sigma: 0.01, Src: rng.New(5)}
	for i, tt := range ts {
		if want := n2.Eval(tt); got[i] != want {
			t.Fatalf("sample %d: %v vs %v", i, got[i], want)
		}
	}
}

func TestEvalIntoLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	EvalInto(DC(1), make([]float64, 3), make([]float64, 2))
}
