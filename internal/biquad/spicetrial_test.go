package biquad

import (
	"errors"
	"math"
	"testing"

	"repro/internal/wave"
)

// trialConfig keeps the scratch tests fast: fewer steps per period than
// the default, everything else stock.
func trialConfig() SpiceConfig {
	return SpiceConfig{StepsPerPeriod: 256}
}

// TestOutputScratchMatchesOutput pins the scratch path's core contract:
// for golden, parametric and catastrophic CUTs, both observations, the
// template-served waveform is bit-identical to the rebuild-per-trial
// Output — one scratch reused across all trials, like a campaign worker.
func TestOutputScratchMatchesOutput(t *testing.T) {
	stim := cutStimulus(t)
	root, err := NewSpiceCUTFromParams(Params{F0: 10e3, Q: 0.9, Gain: 1}, trialConfig())
	if err != nil {
		t.Fatal(err)
	}
	openRQ := Fault{Kind: FaultOpen, Target: TargetRQ}
	shortC := Fault{Kind: FaultShort, Target: TargetC}
	devs := []Deviation{
		{}, // golden
		{RDrift: 0.10},
		{F0Shift: 0.05, QShift: -0.1},
		{Fault: &openRQ}, // pushes Q and the settle count to the cap
		{Fault: &shortC},
	}
	var sc SpiceTrialScratch
	T := stim.Period()
	for di, dev := range devs {
		cut, err := root.Perturb(dev)
		if err != nil {
			t.Fatalf("dev %d: %v", di, err)
		}
		sp := cut.(*SpiceCUT)
		for _, out := range []Output{OutputLP, OutputBP} {
			want, err := sp.Output(stim, out)
			if err != nil {
				t.Fatalf("dev %d out %v: rebuild: %v", di, out, err)
			}
			got, err := sp.OutputScratch(stim, out, &sc)
			if err != nil {
				t.Fatalf("dev %d out %v: scratch: %v", di, out, err)
			}
			if got.Period() != want.Period() {
				t.Fatalf("dev %d out %v: period %v != %v", di, out, got.Period(), want.Period())
			}
			for i := 0; i < 1024; i++ {
				tt := T * float64(i) / 1024
				if g, w := got.Eval(tt), want.Eval(tt); g != w {
					t.Fatalf("dev %d out %v: t=%v: scratch %v, rebuild %v", di, out, tt, g, w)
				}
			}
		}
	}
}

// TestOutputScratchNilAndRebuildFallBack checks the rebuild fallback: a
// nil scratch must route to Output, the rebuild-per-trial path
// (observable through its cache returning the identical waveform
// pointer), on a cached CUT and on a fresh one.
func TestOutputScratchNilAndRebuildFallBack(t *testing.T) {
	stim := cutStimulus(t)
	sp, err := NewSpiceCUTFromParams(Params{F0: 10e3, Q: 0.9, Gain: 1}, trialConfig())
	if err != nil {
		t.Fatal(err)
	}
	cached, err := sp.Output(stim, OutputLP)
	if err != nil {
		t.Fatal(err)
	}
	viaNil, err := sp.OutputScratch(stim, OutputLP, nil)
	if err != nil {
		t.Fatal(err)
	}
	if viaNil != cached {
		t.Fatal("nil scratch did not fall back to the cached Output")
	}
	fresh, err := sp.Perturb(Deviation{RDrift: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	a, err := fresh.(*SpiceCUT).OutputScratch(stim, OutputLP, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fresh.Output(stim, OutputLP)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("nil scratch on a fresh CUT did not run and cache Output")
	}
}

// TestSpiceCUTCacheEvictionKeepsHotEntries pins the cache-eviction fix:
// a stimulus sweep cycling fresh Multitone instances past the cache
// capacity must not flush the golden observation that every trial
// re-reads — only least-recently-used one-shot entries may go.
func TestSpiceCUTCacheEvictionKeepsHotEntries(t *testing.T) {
	golden := cutStimulus(t)
	sp, err := NewSpiceCUTFromParams(Params{F0: 10e3, Q: 0.9, Gain: 1}, trialConfig())
	if err != nil {
		t.Fatal(err)
	}
	hot, err := sp.Output(golden, OutputLP)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*maxOutputCache; i++ {
		variant, err := wave.NewMultitone(0.5, 5e3, []int{1, 2, 3},
			[]float64{0.22, 0.13, 0.08}, []float64{0, 0.1 * float64(i+1), 2.0})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sp.Output(variant, OutputLP); err != nil {
			t.Fatal(err)
		}
		again, err := sp.Output(golden, OutputLP)
		if err != nil {
			t.Fatal(err)
		}
		if again != hot {
			t.Fatalf("sweep variant %d evicted the hot golden entry", i)
		}
	}
	if len(sp.outs) > maxOutputCache || len(sp.outs) != len(sp.lru) {
		t.Fatalf("cache bound broken: %d entries, %d lru keys", len(sp.outs), len(sp.lru))
	}
}

// TestOutputScratchWarmAllocationFree extends the spice-level zero-alloc
// pin up through the biquad layer: a warm scratch trial — template
// compiled, buffers sized, tick tables cached — must not allocate.
func TestOutputScratchWarmAllocationFree(t *testing.T) {
	stim := cutStimulus(t)
	sp, err := NewSpiceCUTFromParams(Params{F0: 10e3, Q: 0.9, Gain: 1}, trialConfig())
	if err != nil {
		t.Fatal(err)
	}
	var sc SpiceTrialScratch
	if _, err := sp.OutputScratch(stim, OutputLP, &sc); err != nil {
		t.Fatal(err)
	}
	var trialErr error
	allocs := testing.AllocsPerRun(10, func() {
		w, err := sp.OutputScratch(stim, OutputLP, &sc)
		if err != nil {
			trialErr = err
		}
		if math.IsNaN(w.Eval(0)) {
			trialErr = errors.New("NaN sample from warm trial")
		}
	})
	if trialErr != nil {
		t.Fatal(trialErr)
	}
	if allocs != 0 {
		t.Fatalf("warm OutputScratch allocates %.1f times per run, want 0", allocs)
	}
}

// TestSpiceOutputBatchMatchesOutput pins the batched trial engine at
// the biquad layer: a block of deviated CUTs — golden, parametric,
// catastrophic, more trials than lanes so refill and the tail path both
// run — streamed through SpiceOutputBatch must emit exactly one
// waveform per CUT, each bit-identical to that CUT's rebuild Output,
// for both observations.
func TestSpiceOutputBatchMatchesOutput(t *testing.T) {
	stim := cutStimulus(t)
	root, err := NewSpiceCUTFromParams(Params{F0: 10e3, Q: 0.9, Gain: 1}, trialConfig())
	if err != nil {
		t.Fatal(err)
	}
	openRQ := Fault{Kind: FaultOpen, Target: TargetRQ}
	shortC := Fault{Kind: FaultShort, Target: TargetC}
	devs := []Deviation{
		{},
		{RDrift: 0.10},
		{F0Shift: 0.05, QShift: -0.1},
		{Fault: &openRQ},
		{Fault: &shortC},
		{RDrift: -0.08},
		{CDrift: 0.12},
	}
	cuts := make([]*SpiceCUT, len(devs))
	for i, dev := range devs {
		c, err := root.Perturb(dev)
		if err != nil {
			t.Fatalf("dev %d: %v", i, err)
		}
		cuts[i] = c.(*SpiceCUT)
	}
	var sb SpiceTrialBatch
	T := stim.Period()
	for _, out := range []Output{OutputLP, OutputBP} {
		emitted := make([]bool, len(cuts))
		err := SpiceOutputBatch(cuts, stim, out, &sb, func(i int, w wave.Waveform) error {
			if emitted[i] {
				t.Fatalf("out %v: CUT %d emitted twice", out, i)
			}
			emitted[i] = true
			want, err := cuts[i].Output(stim, out)
			if err != nil {
				return err
			}
			if w.Period() != want.Period() {
				t.Fatalf("out %v cut %d: period %v != %v", out, i, w.Period(), want.Period())
			}
			for k := 0; k < 1024; k++ {
				tt := T * float64(k) / 1024
				if g, r := w.Eval(tt), want.Eval(tt); g != r {
					t.Fatalf("out %v cut %d: t=%v: batch %v, rebuild %v", out, i, tt, g, r)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range emitted {
			if !e {
				t.Fatalf("out %v: CUT %d never emitted", out, i)
			}
		}
	}
}

// TestSpiceOutputBatchFallsBackSequential checks the sequential routes:
// a nil batch and a block mixing configurations must still emit one
// waveform per CUT (through OutputScratch), and an emit error must stop
// the block.
func TestSpiceOutputBatchFallsBackSequential(t *testing.T) {
	stim := cutStimulus(t)
	sp, err := NewSpiceCUTFromParams(Params{F0: 10e3, Q: 0.9, Gain: 1}, trialConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := trialConfig()
	cfg.SettleFrac = 1e-2
	other, err := NewSpiceCUTFromParams(Params{F0: 10e3, Q: 0.9, Gain: 1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, block := range map[string][]*SpiceCUT{
		"nil batch": {sp, sp},
		"mixed":     {sp, other},
	} {
		var sb *SpiceTrialBatch
		if name == "mixed" {
			sb = new(SpiceTrialBatch)
		}
		count := 0
		err := SpiceOutputBatch(block, stim, OutputLP, sb, func(i int, w wave.Waveform) error {
			count++
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if count != len(block) {
			t.Fatalf("%s: emitted %d of %d", name, count, len(block))
		}
	}
	if err := SpiceOutputBatch(nil, stim, OutputLP, nil, nil); err != nil {
		t.Fatalf("empty block: %v", err)
	}
	wantErr := errors.New("stop")
	err = SpiceOutputBatch([]*SpiceCUT{sp, sp}, stim, OutputLP, nil,
		func(i int, w wave.Waveform) error { return wantErr })
	if err == nil || !errors.Is(err, wantErr) {
		t.Fatalf("emit error not propagated: %v", err)
	}
}
