// Command sigcap captures the digital signature of a CUT with a given f0
// deviation, prints it in the paper's {(Z_i, Δ_i)} notation, compares it
// against the golden signature, and reports the NDF. With -out it also
// writes the binary readout format.
//
// Usage:
//
//	sigcap -shift 0.10
//	sigcap -shift 0.05 -noise 0.005 -clock 10e6 -bits 16 -out sig.bin
//	sigcap -in sig.bin              # re-score a stored signature
//	sigcap -shift 0.10 -json out.json
//	sigcap -shift 0.10 -backend spice   # capture from the SPICE netlist engine
//	sigcap -shift 0.10 -cpuprofile cpu.out  # profile the capture path
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/ndf"
	"repro/internal/prof"
	"repro/internal/rng"
	"repro/internal/signature"
	"repro/internal/testbench"
)

func main() {
	var (
		shift   = flag.Float64("shift", 0.10, "fractional f0 deviation of the CUT")
		sigma   = flag.Float64("noise", 0, "measurement noise sigma in volts (paper: 0.005)")
		clock   = flag.Float64("clock", 10e6, "master clock frequency, Hz")
		bits    = flag.Int("bits", 16, "time counter width")
		seed    = flag.Uint64("seed", 1, "noise seed")
		out     = flag.String("out", "", "write the binary signature to this file")
		jsonOut = flag.String("json", "", "write the JSON signature to this file")
		in      = flag.String("in", "", "score a stored binary signature instead of capturing")
		backend = flag.String("backend", core.Backends()[0], "CUT backend: "+strings.Join(core.Backends(), " or "))
	)
	profiler := prof.FlagVars(nil)
	flag.Parse()
	err := profiler.Around(func() error {
		return run(*shift, *sigma, *clock, *bits, *seed, *out, *jsonOut, *in, *backend)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "sigcap:", err)
		os.Exit(1)
	}
}

// checkCapture bounds -clock and -bits as the counter campaign bounds
// its captures, so a capture of the paper's period takes at most
// core.MaxTicks ticks.
func checkCapture(clock float64, bits int) error {
	p := testbench.CounterParams{Bits: []int{bits}, Clocks: []float64{clock}}
	if err := p.Validate(); err != nil {
		return fmt.Errorf("-clock %g, -bits %d: %w", clock, bits, err)
	}
	return nil
}

func run(shift, sigma, clock float64, bits int, seed uint64, out, jsonOut, in, backend string) error {
	if err := checkCapture(clock, bits); err != nil {
		return err
	}
	ref, err := core.SystemForBackend(backend)
	if err != nil {
		return err
	}
	sys, err := core.NewSystem(ref.Stimulus, ref.CUT, ref.Bank, signature.CaptureConfig{ClockHz: clock, CounterBits: bits})
	if err != nil {
		return err
	}
	var sig *signature.Signature
	if in != "" {
		data, err := os.ReadFile(in)
		if err != nil {
			return err
		}
		sig = &signature.Signature{}
		if err := sig.UnmarshalBinary(data); err != nil {
			return err
		}
		if err := sig.Validate(); err != nil {
			return fmt.Errorf("stored signature invalid: %w", err)
		}
		fmt.Printf("loaded signature from %s\n", in)
	} else {
		var noise *rng.Stream
		if sigma > 0 {
			noise = rng.New(seed)
		}
		cut, err := sys.Shifted(shift)
		if err != nil {
			return err
		}
		sig, err = sys.CapturedSignature(cut, sigma, noise)
		if err != nil {
			return err
		}
	}
	golden, err := sys.GoldenSignature()
	if err != nil {
		return err
	}
	v, err := ndf.NDF(sig, golden)
	if err != nil {
		return err
	}
	fmt.Printf("CUT: f0 %+.1f%%, noise sigma %g V, clock %g Hz, %d-bit counter\n",
		shift*100, sigma, clock, bits)
	fmt.Printf("signature (%d intervals over %.0f µs):\n  %s\n",
		sig.NumZones(), sig.Period*1e6, sig)
	fmt.Printf("zones traversed (paper notation):\n")
	for _, e := range sig.Entries {
		fmt.Printf("  %s for %7.2f µs\n", sys.Bank.FormatCode(e.Code), e.Dur*1e6)
	}
	fmt.Printf("NDF vs golden = %.4f\n", v)
	if out != "" {
		data, err := sig.MarshalBinary()
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("binary signature written to %s (%d bytes)\n", out, len(data))
	}
	if jsonOut != "" {
		data, err := json.MarshalIndent(sig, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonOut, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("JSON signature written to %s (%d bytes)\n", jsonOut, len(data))
	}
	return nil
}
