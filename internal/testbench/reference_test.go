package testbench

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/ndf"
	"repro/internal/signature"
)

// refExact is the per-point reference of System.ExactSignature:
// Classify at every scan point and every bisection midpoint.
func refExact(s *core.System, c core.CUT) (*signature.Signature, error) {
	cls, err := s.Classifier(c, 0, nil)
	if err != nil {
		return nil, err
	}
	return signature.Exact(cls, s.Period(), s.ScanN, 0)
}

// TestCounterMatchesCaptureReference: every AbsErr cell of the counter
// campaign equals, bit for bit, the one computed from the per-tick
// capture reference (signature.CaptureCanonical on Classifier) against
// the per-point golden and exact signatures — at the registry defaults,
// whose captures never wrap the counter, and at a wrap-heavy set of
// 1–5-bit counters and 3 MHz–1 GHz clocks, on both backends.
func TestCounterMatchesCaptureReference(t *testing.T) {
	sets := []CounterParams{
		*registry["counter"].newParams().(*CounterParams),
		{Shift: 0.10, Bits: []int{1, 2, 3, 4, 5}, Clocks: []float64{3e6, 1e7, 3e7, 1e8, 1e9}},
	}
	for _, backend := range core.Backends() {
		for _, p := range sets {
			name := fmt.Sprintf("%s bits %v clocks %v", backend, p.Bits, p.Clocks)
			got, err := runAs[AblCounter](context.Background(), Spec{Campaign: "counter", Backend: backend, Params: p})
			if err != nil {
				t.Fatal(err)
			}
			sys := batchedSystem(t, backend)
			cut, err := sys.Shifted(p.Shift)
			if err != nil {
				t.Fatal(err)
			}
			g, err := refExact(sys, sys.CUT)
			if err != nil {
				t.Fatal(err)
			}
			sig, err := refExact(sys, cut)
			if err != nil {
				t.Fatal(err)
			}
			exact, err := ndf.NDF(sig, g)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got.ExactNDF) != math.Float64bits(exact) {
				t.Fatalf("%s: exact NDF %v, reference %v", name, got.ExactNDF, exact)
			}
			cls, err := sys.Classifier(cut, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			for j, f := range p.Clocks {
				// Every counter width samples the same tick instants, so
				// each instant is classified once per clock.
				codes := map[float64]monitor.Code{}
				memo := func(t float64) monitor.Code {
					c, ok := codes[t]
					if !ok {
						c = cls(t)
						codes[t] = c
					}
					return c
				}
				for i, m := range p.Bits {
					cfg := signature.CaptureConfig{ClockHz: f, CounterBits: m}
					capSig, err := signature.CaptureCanonical(memo, sys.Period(), cfg, nil)
					if err != nil {
						t.Fatal(err)
					}
					v, err := ndf.NDF(capSig, g)
					if err != nil {
						t.Fatal(err)
					}
					if want := math.Abs(v - exact); math.Float64bits(got.AbsErr[i][j]) != math.Float64bits(want) {
						t.Fatalf("%s: %d bits at %g Hz: AbsErr %v, reference %v", name, m, f, got.AbsErr[i][j], want)
					}
				}
			}
		}
	}
}
