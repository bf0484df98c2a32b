package campaign

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
)

// foldTrace is an accumulator that keeps the fold order and a
// non-associative sum, so any difference in which trials fold, in what
// order or grouping, shows.
type foldTrace struct {
	sum float64
	idx []int
}

var traceReducer = Reducer[float64, foldTrace]{
	Fold: func(acc foldTrace, i int, v float64) foldTrace {
		acc.sum = acc.sum*1.0000001 + v
		acc.idx = append(acc.idx, i)
		return acc
	},
	Merge: func(into, next foldTrace) foldTrace {
		into.sum = into.sum*1.0000003 + next.sum
		into.idx = append(into.idx, next.idx...)
		return into
	},
}

// pairRun is the observable outcome of one span reduction: its
// accumulator and error, the meter's per-chunk folded counts and the
// progress ticks, and how many calls each trial form took.
type pairRun struct {
	acc      foldTrace
	err      error
	folded   map[int]int
	progress [][2]int
	ones     int
	twos     int
}

// eventMeter records each chunk's folded count.
type eventMeter struct {
	mu     sync.Mutex
	folded map[int]int
}

func (m *eventMeter) ReduceStart(int, int) {}
func (m *eventMeter) ChunkStart(int)       {}
func (m *eventMeter) ChunkDone(c, trials int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.folded[c] += trials
}

// runPairForm reduces span with the one-trial form alone or, with
// paired, with both forms. trial i fails when i == failAt, and the
// context is cancelled inside the call that computes trial cancelAt (the
// pair call that starts there, in the paired form).
func runPairForm(e Engine, span Span, paired bool, failAt, cancelAt int) pairRun {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := &eventMeter{folded: map[int]int{}}
	var mu sync.Mutex
	var out pairRun
	e.Meter = m
	e.Progress = func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		out.progress = append(out.progress, [2]int{done, total})
	}
	value := func(i int) (float64, error) {
		if i == failAt {
			return 0, fmt.Errorf("trial %d failed", i)
		}
		return math.Sqrt(float64(i) + 0.5), nil
	}
	one := func(i int, _ struct{}) (float64, error) {
		mu.Lock()
		out.ones++
		mu.Unlock()
		if i == cancelAt {
			cancel()
		}
		return value(i)
	}
	var two PairTrial[float64, struct{}]
	if paired {
		two = func(i int, _ struct{}) (v0, v1 float64, err0, err1 error) {
			mu.Lock()
			out.twos++
			mu.Unlock()
			if i == cancelAt {
				cancel()
			}
			v0, err0 = value(i)
			v1, err1 = value(i + 1)
			return v0, v1, err0, err1
		}
	}
	out.acc, out.err = ReduceSpanScratch(ctx, e, span, nil, nil, traceReducer, func() struct{} { return struct{}{} }, one, two)
	out.folded = m.folded
	return out
}

// TestPairTrialFoldsLikeOneTrial pins the two-trial form to the
// one-trial form: the same accumulator (fold order and grouping), the
// same error, the same meter counts per chunk and, at one worker, the
// same progress ticks, for chunk sizes 1, 2, 3, 7 and 16, spans that
// start and end at odd and even indices, a failing trial in either lane
// of a pair, and a cancel between the two lanes. It also checks that
// every in-chunk pair ran through the two-trial form and only a chunk's
// odd last trial through the one-trial form.
func TestPairTrialFoldsLikeOneTrial(t *testing.T) {
	const n = 61
	spans := []Span{{0, n}, {1, n}, {5, 40}, {16, 17}, {3, 3}}
	for _, chunk := range []int{1, 2, 3, 7, 16} {
		for _, span := range spans {
			for _, workers := range []int{1, 3} {
				e := Engine{Workers: workers, Chunk: chunk}
				type pairCase struct {
					name             string
					failAt, cancelAt int
				}
				cases := []pairCase{{"clean", -1, -1}}
				if span.Len() > 3 {
					// The first pair starts at span.Lo, or at the next chunk
					// when the first chunk holds one span trial.
					pairStart := span.Lo
					if (span.Lo/chunk+1)*chunk-span.Lo < 2 {
						pairStart = (span.Lo/chunk + 1) * chunk
					}
					cases = append(cases,
						pairCase{"fail first lane", pairStart, -1},
						pairCase{"fail second lane", pairStart + 1, -1},
						pairCase{"cancel between lanes", -1, pairStart})
				}
				for _, c := range cases {
					what := fmt.Sprintf("chunk %d span %v workers %d %s", chunk, span, workers, c.name)
					want := runPairForm(e, span, false, c.failAt, c.cancelAt)
					got := runPairForm(e, span, true, c.failAt, c.cancelAt)
					if fmt.Sprint(got.err) != fmt.Sprint(want.err) {
						t.Fatalf("%s: error %v, one-trial form %v", what, got.err, want.err)
					}
					if want.err == nil && (math.Float64bits(got.acc.sum) != math.Float64bits(want.acc.sum) || !reflect.DeepEqual(got.acc.idx, want.acc.idx)) {
						t.Fatalf("%s: folded %v (sum %x), one-trial form %v (sum %x)", what, got.acc.idx, got.acc.sum, want.acc.idx, want.acc.sum)
					}
					if workers == 1 && (!reflect.DeepEqual(got.folded, want.folded) || !reflect.DeepEqual(got.progress, want.progress)) {
						t.Fatalf("%s: meter %v progress %v, one-trial form meter %v progress %v", what, got.folded, got.progress, want.folded, want.progress)
					}
					if c.name != "clean" {
						continue
					}
					pairs, odd := 0, 0
					for k := span.Lo / chunk; k*chunk < span.Hi; k++ {
						m := min((k+1)*chunk, span.Hi) - max(k*chunk, span.Lo)
						pairs, odd = pairs+m/2, odd+m%2
					}
					if got.twos != pairs || got.ones != odd {
						t.Fatalf("%s: %d pair and %d one-trial calls, want %d and %d", what, got.twos, got.ones, pairs, odd)
					}
				}
			}
		}
	}
}

// TestPairTrialCancelStopsBeforeSecondLane checks the cancel between the
// lanes directly: a context cancelled during the pair call (i, i+1)
// folds trial i, not trial i+1, and returns context.Canceled.
func TestPairTrialCancelStopsBeforeSecondLane(t *testing.T) {
	got := runPairForm(Engine{Workers: 1, Chunk: 8}, Span{0, 16}, true, -1, 4)
	if !errors.Is(got.err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", got.err)
	}
	folded := 0
	for _, k := range got.folded {
		folded += k
	}
	if folded != 5 {
		t.Fatalf("%d trials folded, want 5 (trials 0-4)", folded)
	}
}
