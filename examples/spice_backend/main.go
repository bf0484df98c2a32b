// spice_backend demonstrates the pluggable CUT layer: the same paper
// experiment — calibrate a ±5% band, test deviated and faulty devices —
// runs once on the closed-form analytic model and once on the SPICE
// netlist engine (a Tow-Thomas opamp-RC circuit integrated by the
// transient solver's linear fast path). The two backends agree to within
// the integrator's accuracy budget, so campaigns can pick either: the
// analytic model for speed, the netlist for component-level fidelity.
//
// Run with: go run ./examples/spice_backend
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/biquad"
	"repro/internal/campaign"
	"repro/internal/core"
)

func main() {
	ctx := context.Background()
	analytic := core.Default()
	spiced, err := core.DefaultSpice()
	if err != nil {
		log.Fatal(err)
	}

	for _, sys := range []*core.System{analytic, spiced} {
		fmt.Printf("backend: %s\n", sys.CUT.Describe())
		dec, err := sys.CalibrateFromToleranceCtx(ctx, 0.05, 9, campaign.Engine{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  calibrated threshold: NDF <= %.4f\n", dec.Threshold)
		for _, shift := range []float64{0, 0.03, 0.10} {
			cut, err := sys.Shifted(shift)
			if err != nil {
				log.Fatal(err)
			}
			res, err := sys.Test(cut, dec, 0, nil)
			if err != nil {
				log.Fatal(err)
			}
			verdict := "PASS"
			if !res.Pass {
				verdict = "FAIL"
			}
			fmt.Printf("  f0 %+5.1f%%: NDF = %.4f -> %s\n", shift*100, res.NDF, verdict)
		}
		// A component-level defect the way only the realization can
		// express it: the damping resistor opens.
		fault := biquad.Fault{Kind: biquad.FaultOpen, Target: biquad.TargetRQ}
		faulty, err := sys.Deviated(core.Deviation{Fault: &fault})
		if err != nil {
			log.Fatal(err)
		}
		res, err := sys.Test(faulty, dec, 0, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s: NDF = %.4f -> detected=%v\n\n", fault, res.NDF, !res.Pass)
	}
}
