package spice

import (
	"math"
	"testing"

	"repro/internal/wave"
)

// pairLane is one lane of a RunTrialPair case: the ladder's component
// values, the trial's step count, recording window and recorded node
// name ("" = ground), and whether the trial is malformed (zero steps),
// so that its preparation fails.
type pairLane struct {
	r1, c1, r2, c2 float64
	steps, start   int
	n              int
	node           string
	bad            bool
}

// laneTemplate builds the two-stage RC ladder with l's values, driven
// by stim, and l's trial on it.
func laneTemplate(t *testing.T, l pairLane, stim wave.Waveform) (*CircuitTemplate, Trial) {
	t.Helper()
	ckt, _ := fuzzRC(l.r1, l.c1, l.r2, l.c2)
	tmpl, err := NewCircuitTemplate(ckt)
	if err != nil {
		t.Fatal(err)
	}
	if err := tmpl.SetVSourceWaveform("V1", stim); err != nil {
		t.Fatal(err)
	}
	tr := Trial{Dur: 4e-4, Steps: l.steps, Record: Ground, Start: l.start, Out: make([]float64, l.n)}
	if l.node != "" {
		tr.Record = ckt.Node(l.node)
	}
	if l.bad {
		tr.Steps = 0
	}
	return tmpl, tr
}

// laneRebuild is the rebuild oracle of lane l: a fresh ladder through
// the generic TransientSolver, recorded over l's window.
func laneRebuild(t *testing.T, l pairLane, stim wave.Waveform) []float64 {
	t.Helper()
	ckt, _ := fuzzRC(l.r1, l.c1, l.r2, l.c2)
	ckt.FindElement("V1").(*VSource).SetWaveform(stim)
	node := Ground
	if l.node != "" {
		node = ckt.Node(l.node)
	}
	want := make([]float64, l.n)
	err := NewTransientSolver(ckt, false).Run(4e-4, l.steps, func(k int, _ float64, sol *Solution) {
		if i := k - l.start; i >= 0 && i < l.n {
			want[i] = sol.VoltageAt(node)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestRunTrialPairMatchesRunTrial pins each lane of RunTrialPair to its
// own RunTrial on a separate template and to the rebuild oracle, under
// math.Float64bits: equal and unequal step counts (either lane longer),
// different recorded nodes and windows, a pair whose compiled solves
// differ in shape (so no step runs in lock step), and a lane whose
// preparation fails, which must return its error while the other lane
// runs alone. Each case runs twice on the same pair of templates, so
// the second, warm run starts from the state the first left.
func TestRunTrialPairMatchesRunTrial(t *testing.T) {
	stim := wave.Sine{Amp: 0.4, Freq: 5e3, Offset: 0.5}
	a := pairLane{r1: 1e3, c1: 100e-9, r2: 2e3, c2: 47e-9, steps: 96, n: 97, node: "out"}
	b := pairLane{r1: 1.3e3, c1: 82e-9, r2: 1.7e3, c2: 56e-9, steps: 96, n: 97, node: "out"}
	long := b
	long.steps, long.start, long.n = 150, 100, 51
	nodeA := b
	nodeA.node = "a"
	nodeIn := b
	nodeIn.node = "in"
	ground := b
	ground.node = ""
	bad := b
	bad.bad = true
	cases := []struct {
		name      string
		a, b      pairLane
		sameShape bool
	}{
		{"equal steps", a, b, true},
		{"second lane longer", a, long, true},
		{"first lane longer", long, a, true},
		{"other recorded node", a, nodeA, true},
		{"ground recorded", ground, a, true},
		{"different shapes", a, nodeIn, false},
		{"first lane fails", bad, a, false},
		{"second lane fails", a, bad, false},
		{"both fail", bad, bad, false},
	}
	for _, c := range cases {
		ta, tra := laneTemplate(t, c.a, stim)
		tb, trb := laneTemplate(t, c.b, stim)
		for run := 0; run < 2; run++ {
			errA, errB := RunTrialPair(ta, tb, tra, trb)
			for lane, l := range []struct {
				spec pairLane
				tr   Trial
				err  error
			}{{c.a, tra, errA}, {c.b, trb, errB}} {
				ref, refTr := laneTemplate(t, l.spec, stim)
				refErr := ref.RunTrial(refTr)
				if (l.err == nil) != (refErr == nil) {
					t.Fatalf("%s run %d lane %d: pair error %v, RunTrial error %v", c.name, run, lane, l.err, refErr)
				}
				if l.err != nil {
					continue
				}
				want := laneRebuild(t, l.spec, stim)
				for i := range want {
					got, one := l.tr.Out[i], refTr.Out[i]
					if math.Float64bits(got) != math.Float64bits(one) || math.Float64bits(got) != math.Float64bits(want[i]) {
						t.Fatalf("%s run %d lane %d: sample %d = %v, RunTrial %v, rebuild %v", c.name, run, lane, i, got, one, want[i])
					}
				}
			}
		}
		if !c.a.bad && !c.b.bad && ta.prog.SameShape(&tb.prog) != c.sameShape {
			t.Fatalf("%s: compiled solves share a shape = %v, want %v", c.name, !c.sameShape, c.sameShape)
		}
	}
}

// TestRunTrialPairAllocationFree pins a warm pair of trials, lock step
// and one-lane tail, at zero allocations.
func TestRunTrialPairAllocationFree(t *testing.T) {
	stim := wave.Sine{Amp: 0.4, Freq: 5e3, Offset: 0.5}
	ta, tra := laneTemplate(t, pairLane{r1: 1e3, c1: 100e-9, r2: 2e3, c2: 47e-9, steps: 64, n: 65, node: "out"}, stim)
	tb, trb := laneTemplate(t, pairLane{r1: 1.2e3, c1: 90e-9, r2: 2e3, c2: 47e-9, steps: 96, n: 97, node: "out"}, stim)
	if errA, errB := RunTrialPair(ta, tb, tra, trb); errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	var errA, errB error
	allocs := testing.AllocsPerRun(20, func() {
		errA, errB = RunTrialPair(ta, tb, tra, trb)
	})
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if allocs != 0 {
		t.Fatalf("warm trial pair allocates %.1f times per run, want 0", allocs)
	}
}
