package testbench

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/biquad"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/ndf"
	"repro/internal/rng"
	"repro/internal/wave"
)

// Satellite regression for the yield.go stream fix: the streaming
// in-worker derivation must reproduce, bit for bit, the old seeding
// order — all per-die streams derived serially up front, all verdicts
// materialized in a slice and folded afterwards — at every worker count
// and chunk size. Engine.Stream is a pure function of (seed, die), so
// moving the derivation inside the pool must not move a single draw.
func TestYieldStreamingMatchesSerialPrepass(t *testing.T) {
	s := sys()
	dec := ndf.Decision{Threshold: 0.03}
	const (
		n     = 60
		sigma = 0.02
		tol   = 0.05
		seed  = 7
	)
	// Pin the seeding order itself: PR 5 moved yield from the stateful
	// rng.New(seed).Split(i) pre-pass to the pure Engine.Stream(i) ==
	// rng.NewSub(seed, i) derivation (the published numbers moved once,
	// deliberately, with the campaign re-baselined on it). These golden
	// draws freeze the new order — a future change to Engine.Stream or
	// NewSub would silently re-draw every campaign, and must fail here
	// instead.
	for i, want := range []uint64{0x417d92f18561f76e, 0xc231a6a1d266fe61, 0xc3b80e9da8ce88cc} {
		if got := (campaign.Engine{Seed: seed}).Stream(i).Uint64(); got != want {
			t.Fatalf("Engine.Stream(%d) first draw = %#x, want %#x — the campaign seeding order changed", i, got, want)
		}
	}
	// Serial reference: the pre-refactor shape of runYield — an O(n)
	// stream pre-pass in die order, one result slot per die.
	golden := s.Golden()
	if _, err := s.GoldenSignature(); err != nil {
		t.Fatal(err)
	}
	streams := make([]*rng.Stream, n)
	for i := range streams {
		streams[i] = (campaign.Engine{Seed: seed}).Stream(i)
	}
	want := &Yield{N: n}
	sc := core.NewTrialScratch()
	for i := 0; i < n; i++ {
		st := streams[i]
		cut, err := s.Deviated(core.Deviation{
			RDrift:  st.Gauss(0, sigma),
			RQDrift: st.Gauss(0, sigma),
			RGDrift: st.Gauss(0, sigma),
			CDrift:  st.Gauss(0, sigma),
		})
		if err != nil {
			t.Fatal(err)
		}
		p := cut.Params()
		inBand := func(val, nom, frac float64) bool {
			return val >= nom*(1-frac) && val <= nom*(1+frac)
		}
		truthGood := inBand(p.F0, golden.F0, tol) &&
			inBand(p.Q, golden.Q, 2*tol) &&
			inBand(p.Gain, golden.Gain, tol)
		v, err := s.NDFOfScratch(cut, sc)
		if err != nil {
			t.Fatal(err)
		}
		pass := dec.Pass(v)
		if truthGood {
			want.TrueGood++
		}
		if pass {
			want.PassCount++
		}
		switch {
		case pass && !truthGood:
			want.Escapes++
		case !pass && truthGood:
			want.Overkill++
		}
	}
	for _, w := range []int{1, 4, runtime.NumCPU()} {
		for _, chunk := range []int{0, 7, 64} {
			got, err := runAs[Yield](context.Background(), Spec{
				Campaign: "yield",
				Seed:     seed,
				Workers:  w,
				Chunk:    chunk,
				Params:   YieldParams{N: n, ComponentSigma: sigma, Tol: tol, Threshold: &dec.Threshold},
			}, WithSystem(sys()))
			if err != nil {
				t.Fatal(err)
			}
			if got.TrueGood != want.TrueGood || got.PassCount != want.PassCount ||
				got.Escapes != want.Escapes || got.Overkill != want.Overkill {
				t.Fatalf("workers=%d chunk=%d: streamed %+v, serial pre-pass reference %+v",
					w, chunk, got, want)
			}
		}
	}
}

// The streamed fault table must keep its rows in fault order and agree
// across worker counts and chunk sizes on both CUT backends — the merge
// order of the reduction is trial order, whatever the scheduling.
func TestFaultTableStreamingOrderAcrossBackends(t *testing.T) {
	for _, backend := range core.Backends() {
		if backend == "spice" && testing.Short() {
			continue // the netlist engine is too slow for -short
		}
		s, err := core.SystemForBackend(backend)
		if err != nil {
			t.Fatal(err)
		}
		faults := []biquad.Fault{
			{Kind: biquad.FaultParametric, Target: biquad.TargetR, Frac: 0.10},
			{Kind: biquad.FaultOpen, Target: biquad.TargetRQ},
			{Kind: biquad.FaultShort, Target: biquad.TargetC},
			{Kind: biquad.FaultParametric, Target: biquad.TargetC, Frac: -0.10},
		}
		dec := ndf.Decision{Threshold: 0.02}
		ref, err := runFaultTable(context.Background(), s, dec, faults, campaign.Engine{Workers: 1, Chunk: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(ref.Cases) != len(faults) {
			t.Fatalf("%s: %d cases for %d faults", backend, len(ref.Cases), len(faults))
		}
		for i := range ref.Cases {
			if ref.Cases[i].Fault != faults[i] {
				t.Fatalf("%s: row %d holds fault %s, want %s", backend, i, ref.Cases[i].Fault, faults[i])
			}
		}
		for _, w := range []int{2, runtime.NumCPU()} {
			got, err := runFaultTable(context.Background(), s, dec, faults, campaign.Engine{Workers: w, Chunk: 1})
			if err != nil {
				t.Fatal(err)
			}
			for i := range ref.Cases {
				if got.Cases[i] != ref.Cases[i] {
					t.Fatalf("%s workers=%d: row %d differs from serial run", backend, w, i)
				}
			}
		}
		// Coverage interval brackets the point estimate.
		if c := ref.Coverage(); c < ref.CoverageLo || c > ref.CoverageHi {
			t.Fatalf("%s: coverage CI [%v, %v] excludes %v", backend, ref.CoverageLo, ref.CoverageHi, c)
		}
	}
}

// Cancellation and progress under the streaming engine, on both
// backends: cancelling mid-chunk returns context.Canceled promptly,
// leaks no goroutines, and the progress stream observed up to that
// point never decreased.
func TestStreamingCancelAndProgressBothBackends(t *testing.T) {
	if testing.Short() {
		t.Skip("cancellation soak skipped in -short mode")
	}
	for _, backend := range core.Backends() {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			var mu sync.Mutex
			last := 0
			var once sync.Once
			started := make(chan struct{})
			errCh := make(chan error, 1)
			go func() {
				// A population only cancellation ends in reasonable time;
				// chunk 1 makes progress tick (and cancellation points)
				// per-die.
				thr := 0.03
				_, err := Run(ctx, Spec{
					Campaign: "yield",
					Backend:  backend,
					Seed:     3,
					Chunk:    1,
					Params:   YieldParams{N: 1_000_000, ComponentSigma: 0.02, Tol: 0.05, Threshold: &thr},
				}, WithProgress(func(done, total int) {
					mu.Lock()
					if done < last {
						t.Errorf("progress went backwards: %d after %d", done, last)
					}
					last = done
					mu.Unlock()
					once.Do(func() { close(started) })
				}))
				errCh <- err
			}()
			<-started
			cancel()
			select {
			case err := <-errCh:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("cancellation not honoured within 30s")
			}
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if got := runtime.NumGoroutine(); got > before {
				t.Fatalf("%d goroutines after cancel, started with %d", got, before)
			}
		})
	}
}

// The registry's trial-count knob and the spec's engine knobs:
// production-scale specs validate, absurd ones (a trial count out of
// range, a negative chunk, a pool over MaxWorkers) fail loudly before
// any work starts.
func TestTrialsKnobValidation(t *testing.T) {
	ok := Spec{Campaign: "yield", Params: YieldParams{N: 10_000_000, ComponentSigma: 0.02, Tol: 0.05}}
	if err := Validate(ok); err != nil {
		t.Fatalf("10M-trial yield spec rejected: %v", err)
	}
	for _, bad := range []Spec{
		{Campaign: "yield", Params: YieldParams{N: 0, ComponentSigma: 0.02, Tol: 0.05}},
		{Campaign: "yield", Params: YieldParams{N: MaxTrials + 1, ComponentSigma: 0.02, Tol: 0.05}},
		{Campaign: "noise", Params: NoiseParams{Sigma: 0.005, Devs: []float64{0.01}, NullTrials: 4, Trials: -1}},
		{Campaign: "noise", Params: NoiseParams{Sigma: -1, Devs: []float64{0.01}, NullTrials: 4, Trials: 4}},
		{Campaign: "noisesweep", Params: NoiseSweepParams{Sigmas: []float64{0.005}, DevGrid: []float64{0.01}, Trials: MaxTrials * 2}},
		{Campaign: "fig4mc", Params: Fig4MCParams{Monitor: 2, Dies: 0, Cols: 5}},
		{Campaign: "yield", Chunk: -1},
		{Campaign: "yield", Workers: MaxWorkers + 1, Chunk: 1, Params: YieldParams{N: 200_000, ComponentSigma: 0.02, Tol: 0.05}},
	} {
		if err := Validate(bad); err == nil {
			t.Fatalf("spec %+v validated", bad)
		}
	}
	// Run applies the same gate: the bad spec never reaches the campaign.
	if _, err := Run(context.Background(), Spec{
		Campaign: "yield",
		Params:   YieldParams{N: -5, ComponentSigma: 0.02, Tol: 0.05},
	}); err == nil {
		t.Fatal("Run accepted a negative trial count")
	}
	if _, err := Run(context.Background(), Spec{Campaign: "table1", Chunk: -1}); err == nil {
		t.Fatal("Run accepted a negative chunk the HTTP gate rejects")
	}
}

// MaxWorkers bounds the effective pool: WithWorkers over the bound
// fails, and WithWorkers under it overrides an over-bound spec.
func TestWorkersBoundIsEffectiveCount(t *testing.T) {
	if err := Validate(Spec{Campaign: "yield", Workers: MaxWorkers}); err != nil {
		t.Fatalf("MaxWorkers rejected: %v", err)
	}
	if _, err := Run(context.Background(), Spec{Campaign: "table1"}, WithWorkers(MaxWorkers+1)); err == nil || !strings.Contains(err.Error(), "worker bound") {
		t.Fatalf("WithWorkers(MaxWorkers+1): %v, want the worker-bound error", err)
	}
	res, err := Run(context.Background(), Spec{Campaign: "table1", Workers: MaxWorkers + 1}, WithWorkers(1))
	if err != nil {
		t.Fatalf("WithWorkers(1) over an over-bound spec: %v", err)
	}
	if res.Workers != 1 {
		t.Fatalf("effective workers = %d, want 1", res.Workers)
	}
}

// The size knobs: every catalogued default validates, each knob at its
// bound validates, and one past it fails before any work starts — a
// fig6 grid of 100000 would otherwise ask zone.Build for 10^10 codes.
func TestSizeKnobValidation(t *testing.T) {
	for _, name := range Names() {
		if err := Validate(Spec{Campaign: name}); err != nil {
			t.Fatalf("default %s spec rejected: %v", name, err)
		}
	}
	for _, c := range []struct {
		campaign string
		ok, over any
	}{
		{"fig1", Fig1Params{Shift: 0.1, Points: MaxSamples}, Fig1Params{Shift: 0.1, Points: MaxSamples + 1}},
		{"fig4", Fig4Params{Points: MaxGrid}, Fig4Params{Points: MaxGrid + 1}},
		{"fig4spice", Fig4SpiceParams{Cols: MaxGrid}, Fig4SpiceParams{Cols: MaxGrid + 1}},
		{"fig4mc", Fig4MCParams{Monitor: 2, Dies: 200, Cols: MaxGrid}, Fig4MCParams{Monitor: 2, Dies: 200, Cols: MaxGrid + 1}},
		{"fig4mc", Fig4MCParams{Monitor: 2, Dies: MaxTrials / 10, Cols: 10}, Fig4MCParams{Monitor: 2, Dies: MaxTrials / 10, Cols: 11}},
		{"fig6", Fig6Params{Shift: 0.1, Grid: MaxGrid}, Fig6Params{Shift: 0.1, Grid: 100_000}},
		{"fig7", Fig7Params{Shift: 0.1, Points: MaxSamples}, Fig7Params{Shift: 0.1, Points: 2_000_000_000}},
		{"fig8", Fig8Params{MaxDev: 0.2, Points: MaxSamples, Tol: 0.05}, Fig8Params{MaxDev: 0.2, Points: MaxSamples + 1, Tol: 0.05}},
		{"stimopt", StimOptParams{Shift: 0.05, Grid: MaxStimOptGrid}, StimOptParams{Shift: 0.05, Grid: MaxStimOptGrid + 1}},
		{"fig6", Fig6Params{Shift: 0.1, Grid: 2}, Fig6Params{Shift: 0.1, Grid: 1}},
		{"fig6", Fig6Params{Shift: 0.1, Grid: 2}, Fig6Params{Shift: 0.1, Grid: -3}},
	} {
		if err := Validate(Spec{Campaign: c.campaign, Params: c.ok}); err != nil {
			t.Fatalf("%s %+v rejected: %v", c.campaign, c.ok, err)
		}
		if err := Validate(Spec{Campaign: c.campaign, Params: c.over}); err == nil {
			t.Fatalf("%s %+v validated", c.campaign, c.over)
		}
	}
	// The JSON ingress hits the same gate.
	spec, err := decodeSpec([]byte(`{"campaign":"fig6","params":{"grid":100000}}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(spec); err == nil {
		t.Fatal("fig6 grid 100000 validated")
	}
}

// The noise detection campaign (null calibration + streamed detection
// counts) is bit-identical across worker counts — its render string is
// a full fingerprint of threshold, false-alarm and detection rates.
func TestNoiseDetectionStreamingDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("noise campaign too slow for -short")
	}
	run := func(w, chunk int) *Noise {
		t.Helper()
		nz, err := runAs[Noise](context.Background(), Spec{
			Campaign: "noise",
			Seed:     9,
			Workers:  w,
			Chunk:    chunk,
			Params:   NoiseParams{Sigma: 0.005, Devs: []float64{0.02}, NullTrials: 6, Trials: 6},
		}, WithSystem(sys()))
		if err != nil {
			t.Fatal(err)
		}
		return nz
	}
	ref := run(1, 0)
	for _, w := range []int{2, runtime.NumCPU()} {
		if got := run(w, 0); got.Render() != ref.Render() {
			t.Fatalf("workers=%d: render differs from workers=1", w)
		}
	}
	// Integer detection counts are exactly associative, so even the
	// chunk size cannot move them.
	if got := run(2, 2); got.Render() != ref.Render() {
		t.Fatal("chunk size changed the detection counts")
	}
}

// exhaustingSpecs are spec bodies that passed Validate before the
// counter, noise and noisesweep bounds, with the knob Validate must now
// name: a capture of 2·10⁹ ticks (8 GB of codes), a negative sigma the
// sweep would silently measure without noise, and 100,000 deviations
// of 1000 trials each (10⁸ trials).
func exhaustingSpecs() []struct{ json, knob string } {
	devs := strings.Repeat("0.01,", 100_000)
	return []struct{ json, knob string }{
		{`{"campaign":"counter","params":{"clocks":[1e13]}}`, "clocks"},
		{`{"campaign":"noisesweep","params":{"sigmas":[0.005,-0.01]}}`, "sigmas"},
		{`{"campaign":"noise","params":{"trials":1000,"devs":[` + devs[:len(devs)-1] + `]}}`, "devs"},
		// The sweep stops at the first grid entry it detects, and 1.0
		// stands for "none in grid": a descending grid reported 10 %
		// where the ascending one reports 5 %, a negative one −5 %.
		{`{"campaign":"noisesweep","params":{"sigmas":[0.002],"dev_grid":[0.1,0.05]}}`, "dev_grid"},
		{`{"campaign":"noisesweep","params":{"sigmas":[0.002],"dev_grid":[-0.05,0]}}`, "dev_grid"},
		{`{"campaign":"noisesweep","params":{"sigmas":[0.002],"dev_grid":[0.5,1]}}`, "dev_grid"},
		// The device model simulates a non-positive temperature at 300 K.
		{`{"campaign":"temp","params":{"temps_k":[0]}}`, "temps_k"},
		{`{"campaign":"temp","params":{"temps_k":[-50]}}`, "temps_k"},
	}
}

// TestInputBoundsRejectExhaustingSpecs: each exhausting or ill-formed
// spec fails Validate (and Run) before any work starts, naming its
// knob; every bound admits its edge and rejects one past it, naming the
// knob; and the runner refuses a counter capture over core.MaxTicks
// ticks on a custom system's long period.
func TestInputBoundsRejectExhaustingSpecs(t *testing.T) {
	for _, c := range exhaustingSpecs() {
		spec, err := decodeSpec([]byte(c.json))
		if err != nil {
			t.Fatal(err)
		}
		err = Validate(spec)
		if err == nil || !strings.Contains(err.Error(), c.knob) {
			t.Fatalf("%s spec: Validate = %v, want an error naming %q", spec.Campaign, err, c.knob)
		}
		if _, err := Run(context.Background(), spec); err == nil {
			t.Fatalf("%s spec: Run accepted it", spec.Campaign)
		}
	}
	bits := func(n, m int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = m
		}
		return out
	}
	clocks := func(n int, f float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = f
		}
		return out
	}
	grid := []float64{0.01, 0.02, 0.05}
	list := make([]float64, MaxList+1)
	one := []float64{0.1}
	temps := make([]float64, MaxList+1)
	for i := range temps {
		temps[i] = 300
	}
	faults := make([]biquad.Fault, MaxList+1)
	for _, c := range []struct {
		campaign, knob string
		ok, over       any
	}{
		{"counter", "bits", CounterParams{Shift: 0.1, Bits: []int{1, 32}, Clocks: []float64{MaxClockHz}},
			CounterParams{Shift: 0.1, Bits: []int{1, 33}, Clocks: []float64{1e6}}},
		{"counter", "bits", CounterParams{Shift: 0.1, Bits: bits(MaxCounterList, 8), Clocks: []float64{1e6}},
			CounterParams{Shift: 0.1, Bits: bits(MaxCounterList+1, 8), Clocks: []float64{1e6}}},
		{"counter", "clocks", CounterParams{Shift: 0.1, Bits: []int{8}, Clocks: clocks(MaxCounterList, 1e6)},
			CounterParams{Shift: 0.1, Bits: []int{8}, Clocks: clocks(MaxCounterList+1, 1e6)}},
		{"counter", "clocks", CounterParams{Shift: 0.1, Bits: []int{8}, Clocks: []float64{1e6}},
			CounterParams{Shift: 0.1, Bits: []int{8}, Clocks: []float64{1e6, 0}}},
		{"noise", "null_trials", NoiseParams{Sigma: 0.005, Devs: make([]float64, 9), NullTrials: MaxTrials / 2, Trials: MaxTrials / 20},
			NoiseParams{Sigma: 0.005, Devs: make([]float64, 9), NullTrials: MaxTrials/2 + 1, Trials: MaxTrials / 20}},
		{"noisesweep", "trials", NoiseSweepParams{Sigmas: make([]float64, 5), DevGrid: grid, Trials: MaxTrials / 20},
			NoiseSweepParams{Sigmas: make([]float64, 5), DevGrid: grid, Trials: MaxTrials/20 + 1}},
		{"noisesweep", "dev_grid", NoiseSweepParams{Sigmas: []float64{0.002}, DevGrid: []float64{1e-9, 0.05, 0.999}, Trials: 5},
			NoiseSweepParams{Sigmas: []float64{0.002}, DevGrid: []float64{0.05, 0.05}, Trials: 5}},
		{"temp", "temps_k", TempParams{TempsK: []float64{1e-9, 1e4}},
			TempParams{TempsK: []float64{300, math.Inf(1)}}},
		{"temp", "temps_k", TempParams{TempsK: temps[1:]}, TempParams{TempsK: temps}},
		{"spectral", "train_devs", SpectralParams{TrainDevs: list[1:], TestDevs: one}, SpectralParams{TrainDevs: list, TestDevs: one}},
		{"spectral", "test_devs", SpectralParams{TrainDevs: one, TestDevs: list[1:]}, SpectralParams{TrainDevs: one, TestDevs: list}},
		{"regress", "train_devs", RegressParams{TrainDevs: list[1:], TestDevs: one}, RegressParams{TrainDevs: list, TestDevs: one}},
		{"regress", "test_devs", RegressParams{TrainDevs: one, TestDevs: list[1:]}, RegressParams{TrainDevs: one, TestDevs: list}},
		{"metric", "devs", MetricParams{Devs: list[1:]}, MetricParams{Devs: list}},
		{"linear", "devs", LinearParams{Devs: list[1:]}, LinearParams{Devs: list}},
		{"q", "devs", QParams{Devs: list[1:]}, QParams{Devs: list}},
		{"backends", "shifts", BackendsParams{Shifts: list[1:]}, BackendsParams{Shifts: list}},
		{"faults", "faults", FaultsParams{Tol: 0.05, Faults: faults[1:]}, FaultsParams{Tol: 0.05, Faults: faults}},
	} {
		if err := Validate(Spec{Campaign: c.campaign, Params: c.ok}); err != nil {
			t.Fatalf("%s %+v rejected: %v", c.campaign, c.ok, err)
		}
		if err := Validate(Spec{Campaign: c.campaign, Params: c.over}); err == nil || !strings.Contains(err.Error(), c.knob) {
			t.Fatalf("%s %+v: Validate = %v, want an error naming %q", c.campaign, c.over, err, c.knob)
		}
	}
	// A 20 ms period at the default 10 MHz clock is 2·10⁵ ticks, under
	// the bound; at 100 MHz it is 2·10⁶, over it.
	stim, err := wave.NewMultitone(0.5, 50, []int{1, 2, 3}, []float64{0.22, 0.13, 0.08}, []float64{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	def := core.Default()
	long, err := core.NewSystem(stim, def.CUT, def.Bank, def.Capture)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(context.Background(), Spec{Campaign: "counter", Params: CounterParams{Shift: 0.1, Bits: []int{8}, Clocks: []float64{1e8}}}, WithSystem(long))
	if err == nil || !strings.Contains(err.Error(), "ticks") {
		t.Fatalf("counter capture of 2e6 ticks on a custom period: %v, want the tick-bound error", err)
	}
}
