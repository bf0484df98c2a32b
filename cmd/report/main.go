// Command report runs the complete experiment suite and emits a fresh
// paper-vs-measured summary (the data behind EXPERIMENTS.md) to stdout.
// With -campaign it instead runs a single registered campaign through
// the registry and prints its result (use mcmon -list for the
// catalogue); -json wraps that result in the uniform JSON envelope.
//
// Usage:
//
//	go run ./cmd/report
//	go run ./cmd/report -campaign yield
//	go run ./cmd/report -campaign fig8 -json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/core"
	"repro/internal/testbench"
)

func main() {
	var (
		name    = flag.String("campaign", "", "run a single registered campaign instead of the full suite")
		asJSON  = flag.Bool("json", false, "with -campaign: print the full JSON result envelope")
		backend = flag.String("backend", "", "with -campaign: CUT backend (analytic or spice)")
		seed    = flag.Uint64("seed", 0, "with -campaign: campaign seed")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if *name != "" {
		res, err := testbench.Run(ctx, testbench.Spec{Campaign: *name, Backend: *backend, Seed: *seed})
		if err != nil {
			log.Fatal(err)
		}
		if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(res); err != nil {
				log.Fatal(err)
			}
			return
		}
		fmt.Print(res.Text)
		return
	}
	if err := testbench.WriteReport(ctx, os.Stdout, core.Default()); err != nil {
		log.Fatal(err)
	}
}
