// noise_detect reproduces the paper's noise experiment: with white
// measurement noise of 3σ = 0.015 V on both monitored signals, natural
// frequency deviations as small as 1% remain detectable.
//
// Run with: go run ./examples/noise_detect
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/testbench"
)

func main() {
	const sigma = 0.005 // 3σ = 0.015 V, the paper's condition

	fmt.Printf("measurement noise: sigma = %.3f V (3σ = %.3f V)\n\n", sigma, 3*sigma)
	out, err := testbench.Run(context.Background(), testbench.Spec{
		Campaign: "noise",
		Seed:     2024,
		Params: testbench.NoiseParams{Sigma: sigma,
			Devs: []float64{0.005, 0.01, 0.02, 0.05, 0.10}, NullTrials: 25, Trials: 25},
	}, testbench.WithSystem(core.Default()))
	if err != nil {
		log.Fatal(err)
	}
	res := out.Payload.(*testbench.Noise)
	fmt.Print(res.Render())
	fmt.Println("\npaper claim: deviations as low as 1% in f0 are detected under this noise.")
	if len(res.Detect) >= 2 && res.Detect[1] > res.FalseRate {
		fmt.Printf("reproduced: 1%% detection rate %.2f exceeds false-alarm rate %.2f\n",
			res.Detect[1], res.FalseRate)
	} else {
		fmt.Println("NOT reproduced under the current configuration — inspect the noise floor.")
	}
}
