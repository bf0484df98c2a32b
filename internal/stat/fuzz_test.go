package stat

import (
	"bytes"
	"testing"
)

// FuzzQuantileSketchUnmarshal: arbitrary bytes must never panic the
// sketch decoder, and anything it accepts must re-marshal canonically
// and answer quantiles without panicking — the contract that makes
// sketches safe to ship between shards.
func FuzzQuantileSketchUnmarshal(f *testing.F) {
	s := NewQuantileSketch(DefaultSketchPrecision)
	for _, x := range []float64{0.01, -3.5, 0, 1e-30, 1e25, 7.25} {
		s.Push(x)
	}
	good, _ := s.MarshalBinary()
	f.Add(good)
	empty, _ := NewQuantileSketch(1).MarshalBinary()
	f.Add(empty)
	f.Add([]byte{})
	f.Add([]byte("QSK1"))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		var sk QuantileSketch
		if err := sk.UnmarshalBinary(data); err != nil {
			return
		}
		back, err := sk.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted sketch failed to re-marshal: %v", err)
		}
		var sk2 QuantileSketch
		if err := sk2.UnmarshalBinary(back); err != nil {
			t.Fatalf("re-marshalled payload rejected: %v", err)
		}
		again, err := sk2.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, again) {
			t.Fatal("re-marshal is not canonical")
		}
		// Quantiles on any accepted sketch must not panic; errors
		// (empty, invalid-poisoned) are fine.
		for _, q := range []float64{0, 0.5, 1} {
			if v, err := sk.Quantile(q); err == nil && v != v {
				t.Fatalf("accepted sketch returned NaN quantile at q=%v", q)
			}
		}
		// Merging a decoded sketch with itself must hold the count
		// invariant the decoder enforces.
		sum := sk.N()
		sk.Merge(&sk2)
		if sk.N() != 2*sum {
			t.Fatalf("self-merge count %d, want %d", sk.N(), 2*sum)
		}
	})
}
