// f0sweep regenerates the paper's Fig. 8: the normalized discrepancy
// factor as a function of the deviation in the Biquad's natural
// frequency, with PASS/FAIL acceptance bands, and prints an ASCII plot.
//
// Run with: go run ./examples/f0sweep
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"repro/internal/core"
	"repro/internal/testbench"
)

func main() {
	res, err := testbench.Run(context.Background(), testbench.Spec{
		Campaign: "fig8",
		Params:   testbench.Fig8Params{MaxDev: 0.20, Points: 41, Tol: 0.05},
	}, testbench.WithSystem(core.Default()))
	if err != nil {
		log.Fatal(err)
	}
	fig := res.Payload.(*testbench.Fig8)
	fmt.Print(fig.Render())

	// ASCII rendition of the V-shaped acceptance curve.
	fmt.Println("\nNDF")
	maxNDF := 0.0
	for _, v := range fig.NDFs {
		if v > maxNDF {
			maxNDF = v
		}
	}
	const width = 60
	for i := range fig.Devs {
		bar := int(fig.NDFs[i] / maxNDF * width)
		band := "PASS"
		if fig.NDFs[i] > fig.Threshold {
			band = "FAIL"
		}
		fmt.Printf("%+5.1f%% |%-*s| %.4f %s\n",
			fig.Devs[i]*100, width, strings.Repeat("#", bar), fig.NDFs[i], band)
	}
	fmt.Printf("\nthreshold %.4f set at the ±%.0f%% tolerance edges\n",
		fig.Threshold, fig.Tolerance*100)
	fmt.Println("paper reference: NDF grows ~linearly and ~symmetrically; 0.1021 at +10%")
}
