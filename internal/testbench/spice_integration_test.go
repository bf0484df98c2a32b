package testbench

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/ndf"
	"repro/internal/signature"
)

// TestSpiceBankEndToEnd runs the full test path with every zone bit
// produced by a Newton-Raphson DC solution of the Fig. 2 transistor
// netlist — the closest software stand-in for the fabricated monitor.
// A coarser 1 MHz capture keeps the solve count tractable; the NDF must
// agree with the analytic bank under identical capture settings.
func TestSpiceBankEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("transistor-level bank is slow")
	}
	spiceBank, err := monitor.NewSpiceTableI()
	if err != nil {
		t.Fatal(err)
	}
	ref := core.Default()
	capCfg := signature.CaptureConfig{ClockHz: 1e6, CounterBits: 16}

	spiceSys, err := core.NewSystem(ref.Stimulus, ref.CUT, spiceBank, capCfg)
	if err != nil {
		t.Fatal(err)
	}
	anaSys, err := core.NewSystem(ref.Stimulus, ref.CUT, ref.Bank, capCfg)
	if err != nil {
		t.Fatal(err)
	}

	ndfOf := func(sys *core.System) float64 {
		t.Helper()
		g, err := sys.CapturedSignature(sys.CUT, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		cut, err := sys.Shifted(0.10)
		if err != nil {
			t.Fatal(err)
		}
		d, err := sys.CapturedSignature(cut, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		v, err := ndf.NDF(d, g)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	vSpice := ndfOf(spiceSys)
	vAna := ndfOf(anaSys)
	if vSpice <= 0 {
		t.Fatal("transistor-level bank produced zero NDF at +10%")
	}
	// The two models place boundaries within ~0.02 V of each other, so
	// their NDFs must agree closely.
	if math.Abs(vSpice-vAna) > 0.05 {
		t.Fatalf("transistor-level NDF %v vs analytic %v diverge", vSpice, vAna)
	}
}

// TestSpiceBankZoneCodesAgree compares zone codes of the two models over
// a coarse grid, far from boundaries.
func TestSpiceBankZoneCodesAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("transistor-level bank is slow")
	}
	spiceBank, err := monitor.NewSpiceTableI()
	if err != nil {
		t.Fatal(err)
	}
	anaBank := monitor.NewAnalyticTableI()
	mismatches, total := 0, 0
	for _, x := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		for _, y := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
			ca := anaBank.Classify(x, y)
			cs := spiceBank.Classify(x, y)
			total++
			if ca != cs {
				// Disagreements are only legitimate within ~0.03 V of
				// an analytic boundary (model placement differences).
				nearBoundary := false
				for _, m := range anaBank.Monitors() {
					a := m.(*monitor.Analytic)
					for _, d := range []float64{-0.03, 0.03} {
						if a.Bit(x+d, y) != a.Bit(x, y) || a.Bit(x, y+d) != a.Bit(x, y) {
							nearBoundary = true
						}
					}
				}
				if !nearBoundary {
					t.Fatalf("codes diverge far from boundaries at (%v,%v): %06b vs %06b",
						x, y, ca, cs)
				}
				mismatches++
			}
		}
	}
	// Six boundary bands of ±0.03 V cover a large fraction of the unit
	// square, so a sizable minority of coarse-grid points legitimately
	// sit in the offset zone between the two models; what matters is
	// that no disagreement occurs away from boundaries (checked above)
	// and agreement holds for the majority.
	if mismatches > total/2 {
		t.Fatalf("%d/%d grid points disagree — models inconsistent", mismatches, total)
	}
}

func TestFig4SpiceCurvesMatchAnalytic(t *testing.T) {
	if testing.Short() {
		t.Skip("transistor-level tracing is slow")
	}
	spiceFig, err := runAs[Fig4](context.Background(), Spec{Campaign: "fig4spice", Params: Fig4SpiceParams{Cols: 13}})
	if err != nil {
		t.Fatal(err)
	}
	if len(spiceFig.Curves) != 6 {
		t.Fatalf("spice curves = %d", len(spiceFig.Curves))
	}
	cfgs := monitor.TableI()
	for i, pts := range spiceFig.Curves {
		if len(pts) < 3 {
			t.Fatalf("curve %d traced only %d points", i+1, len(pts))
		}
		am := monitor.MustAnalytic(cfgs[i])
		worst := 0.0
		for _, p := range pts {
			// Distance to the analytic boundary along whichever axis is
			// well-conditioned for this curve segment.
			d := math.Inf(1)
			if ya, ok := am.BoundaryY(p.X, 0, 1); ok {
				d = math.Min(d, math.Abs(ya-p.Y))
			}
			if xa, ok := am.BoundaryX(p.Y, 0, 1); ok {
				d = math.Min(d, math.Abs(xa-p.X))
			}
			if math.IsInf(d, 1) {
				continue // analytic misses the column at curve ends
			}
			if d > worst {
				worst = d
			}
		}
		// Transistor-level boundaries track the design equations within
		// a load/CLM offset budget everywhere on all six curves.
		if worst > 0.1 {
			t.Fatalf("curve %d: worst spice-vs-analytic offset %v", i+1, worst)
		}
	}
}
