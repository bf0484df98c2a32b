package testbench

import (
	"context"
	"strings"
	"testing"
)

func TestTempDriftGrowsAwayFrom300K(t *testing.T) {
	td, err := runAs[TempDrift](context.Background(), Spec{Campaign: "temp", Params: TempParams{TempsK: []float64{250, 300, 350, 400}}}, WithSystem(sys()))
	if err != nil {
		t.Fatal(err)
	}
	if len(td.NDFs) != 4 {
		t.Fatalf("NDFs = %v", td.NDFs)
	}
	// At the characterization temperature the drift is exactly zero.
	if td.NDFs[1] != 0 {
		t.Fatalf("NDF at 300 K = %v, want 0", td.NDFs[1])
	}
	// Away from 300 K the spurious NDF is nonzero and grows with |ΔT|.
	if td.NDFs[0] <= 0 || td.NDFs[2] <= 0 {
		t.Fatalf("temperature drift invisible: %v", td.NDFs)
	}
	if td.NDFs[3] <= td.NDFs[2] {
		t.Fatalf("drift not growing with ΔT: %v", td.NDFs)
	}
	if !strings.Contains(td.Render(), "temperature drift") {
		t.Fatal("render malformed")
	}
}

func TestTempDriftComparableToToleranceBudget(t *testing.T) {
	// The engineering takeaway: a ±50 K excursion must cost less NDF
	// than the ±5% tolerance threshold, otherwise the test is unusable
	// without per-temperature goldens. Verify the drift at 350 K stays
	// below the Fig. 8 threshold.
	s := sys()
	dec, err := s.CalibrateFromTolerance(0.05, 9)
	if err != nil {
		t.Fatal(err)
	}
	td, err := runAs[TempDrift](context.Background(), Spec{Campaign: "temp", Params: TempParams{TempsK: []float64{350}}}, WithSystem(s))
	if err != nil {
		t.Fatal(err)
	}
	if td.NDFs[0] >= dec.Threshold {
		t.Fatalf("50 K drift (%v) exceeds the tolerance threshold (%v); golden CUTs would fail",
			td.NDFs[0], dec.Threshold)
	}
}

func TestAblSpectral(t *testing.T) {
	train := []float64{-0.20, -0.15, -0.10, -0.06, -0.03, 0, 0.03, 0.06, 0.10, 0.15, 0.20}
	test := []float64{-0.12, -0.04, 0.07, 0.12}
	a, err := runAs[AblSpectral](context.Background(), Spec{Campaign: "spectral", Params: SpectralParams{TrainDevs: train, TestDevs: test}}, WithSystem(sys()))
	if err != nil {
		t.Fatal(err)
	}
	// Both feature families must regress f0 deviation well.
	if a.DwellRMSE > 0.02 {
		t.Fatalf("dwell RMSE = %v", a.DwellRMSE)
	}
	if a.SpectralRMSE > 0.02 {
		t.Fatalf("spectral RMSE = %v", a.SpectralRMSE)
	}
	if !strings.Contains(a.Render(), "Goertzel") {
		t.Fatal("render malformed")
	}
}

func TestNoiseSweepResolutionDegrades(t *testing.T) {
	if testing.Short() {
		t.Skip("long Monte-Carlo campaign, skipped under -short")
	}
	ns, err := runAs[NoiseSweep](context.Background(), Spec{Campaign: "noisesweep", Seed: 7, Params: NoiseSweepParams{Sigmas: []float64{0.002, 0.005, 0.02}, DevGrid: []float64{0.005, 0.01, 0.02, 0.05}, Trials: 8}}, WithSystem(sys()))
	if err != nil {
		t.Fatal(err)
	}
	if len(ns.MinDetectable) != 3 {
		t.Fatalf("results = %v", ns.MinDetectable)
	}
	// The paper's operating point: 1% detectable at sigma 0.005.
	if ns.MinDetectable[1] > 0.01 {
		t.Fatalf("min detectable at sigma 0.005 = %v, want <= 1%%", ns.MinDetectable[1])
	}
	// Resolution must not improve as noise grows.
	for i := 1; i < len(ns.MinDetectable); i++ {
		if ns.MinDetectable[i] < ns.MinDetectable[i-1] {
			t.Fatalf("resolution improved with more noise: %v", ns.MinDetectable)
		}
	}
	if !strings.Contains(ns.Render(), "resolution sweep") {
		t.Fatal("render malformed")
	}
}

func TestCornerDrift(t *testing.T) {
	cd, err := runAs[CornerDrift](context.Background(), Spec{Campaign: "corners"}, WithSystem(sys()))
	if err != nil {
		t.Fatal(err)
	}
	if len(cd.NDFs) != 5 {
		t.Fatalf("corners = %d", len(cd.NDFs))
	}
	// TT is the characterization corner: zero drift.
	if cd.NDFs[0] != 0 {
		t.Fatalf("TT drift = %v, want 0", cd.NDFs[0])
	}
	// SS and FF move all boundaries and must show a substantial drift.
	if cd.NDFs[1] <= 0.01 || cd.NDFs[2] <= 0.01 {
		t.Fatalf("SS/FF drifts too small: %v", cd.NDFs)
	}
	// The monitor's zone boundaries are set by nMOS devices only, so SF
	// tracks SS and FS tracks FF.
	if cd.NDFs[3] != cd.NDFs[1] || cd.NDFs[4] != cd.NDFs[2] {
		t.Fatalf("nMOS-only boundary property violated: %v", cd.NDFs)
	}
	if !strings.Contains(cd.Render(), "corner") {
		t.Fatal("render malformed")
	}
}
