package campaign

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
)

// floatSumReducer is deliberately non-associative in the exact sense
// (floating-point addition), so any regrouping of folds or merges shows
// up as a bit difference.
func floatSumReducer() Reducer[float64, float64] {
	return Reducer[float64, float64]{
		Fold:  func(acc float64, _ int, v float64) float64 { return acc + v },
		Merge: func(into, next float64) float64 { return into + next },
	}
}

// floatTrial gives trial i an irrational-ish value so sums are
// order-sensitive.
func floatTrial(i int) (float64, error) {
	return math.Sqrt(float64(i) + 0.5), nil
}

func TestReduceSpanFullRangeMatchesReduce(t *testing.T) {
	ctx := context.Background()
	const n = 10_000
	for _, workers := range []int{1, 4, 8} {
		e := Engine{Workers: workers, Chunk: 512}
		want, err := Reduce(ctx, e, n, floatSumReducer(), floatTrial)
		if err != nil {
			t.Fatal(err)
		}
		got, err := reduceSpan(ctx, e, Span{0, n}, nil, nil, floatSumReducer(), floatTrial)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("workers=%d: ReduceSpanScratch [0,%d) = %x, Reduce = %x", workers, n, got, want)
		}
	}
}

// TestReduceSpanResumeBitIdentical is the determinism contract of the
// fabric: a run checkpointed at a chunk boundary and resumed from the
// restored accumulator lands on the same bits as an uninterrupted run,
// at any worker count — even for a non-associative reducer, because the
// resumed merge chain is the same left-to-right chain.
func TestReduceSpanResumeBitIdentical(t *testing.T) {
	ctx := context.Background()
	const n = 20_000
	const chunk = 512
	full, err := Reduce(ctx, Engine{Workers: 4, Chunk: chunk}, n, floatSumReducer(), floatTrial)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 8} {
		e := Engine{Workers: workers, Chunk: chunk}
		for _, cut := range []int{chunk, 7 * chunk, 39 * chunk} {
			prefix, err := reduceSpan(ctx, e, Span{0, cut}, nil, nil, floatSumReducer(), floatTrial)
			if err != nil {
				t.Fatal(err)
			}
			resumed, err := reduceSpan(ctx, e, Span{cut, n}, &prefix, nil, floatSumReducer(), floatTrial)
			if err != nil {
				t.Fatal(err)
			}
			if resumed != full {
				t.Fatalf("workers=%d cut=%d: resumed = %x, uninterrupted = %x", workers, cut, resumed, full)
			}
		}
	}
}

// TestReduceSpanShardMergeBitIdentical covers the sharding half: for an
// exactly associative reducer (integer counts), chunk-aligned shard
// accumulators merged in shard order equal the single-range run.
func TestReduceSpanShardMergeBitIdentical(t *testing.T) {
	ctx := context.Background()
	const n = 10_000
	const chunk = 256
	red := Reducer[int, int]{
		Fold:  func(acc, i, v int) int { return acc + v },
		Merge: func(into, next int) int { return into + next },
	}
	trial := func(i int) (int, error) { return i % 7, nil }
	want, err := Reduce(ctx, Engine{Workers: 4, Chunk: chunk}, n, red, trial)
	if err != nil {
		t.Fatal(err)
	}
	cuts := []int{0, 4 * chunk, 5 * chunk, 21 * chunk, n}
	for _, workers := range []int{1, 4, 8} {
		e := Engine{Workers: workers, Chunk: chunk}
		got := 0
		for s := 0; s+1 < len(cuts); s++ {
			acc, err := reduceSpan(ctx, e, Span{cuts[s], cuts[s+1]}, nil, nil, red, trial)
			if err != nil {
				t.Fatal(err)
			}
			got = red.Merge(got, acc)
		}
		if got != want {
			t.Fatalf("workers=%d: sharded merge = %d, single-range = %d", workers, got, want)
		}
	}
}

// TestReduceSpanCheckpointCadence pins where checkpoints land: on whole
// chunk boundaries at the configured cadence, never after the final
// chunk, each carrying the accumulator of exactly the trials below it —
// and each restorable into a bit-identical resumed run.
func TestReduceSpanCheckpointCadence(t *testing.T) {
	ctx := context.Background()
	const n = 5000
	const chunk = 256
	for _, workers := range []int{1, 4} {
		e := Engine{Workers: workers, Chunk: chunk, Checkpoint: 3 * chunk}
		type ck struct {
			acc     float64
			through int
		}
		var cks []ck
		sink := func(acc float64, through int) error {
			cks = append(cks, ck{acc, through})
			return nil
		}
		full, err := reduceSpan(ctx, e, Span{0, n}, nil, sink, floatSumReducer(), floatTrial)
		if err != nil {
			t.Fatal(err)
		}
		// 20 chunks at cadence 3: checkpoints after chunks 2, 5, 8, 11,
		// 14, 17 (chunk 19 is final and never checkpoints).
		wantThrough := []int{3 * chunk, 6 * chunk, 9 * chunk, 12 * chunk, 15 * chunk, 18 * chunk}
		if len(cks) != len(wantThrough) {
			t.Fatalf("workers=%d: %d checkpoints, want %d", workers, len(cks), len(wantThrough))
		}
		for i, c := range cks {
			if c.through != wantThrough[i] {
				t.Fatalf("workers=%d: checkpoint %d at trial %d, want %d", workers, i, c.through, wantThrough[i])
			}
			prefix, err := reduceSpan(ctx, Engine{Workers: 1, Chunk: chunk}, Span{0, c.through}, nil, nil, floatSumReducer(), floatTrial)
			if err != nil {
				t.Fatal(err)
			}
			if prefix != c.acc {
				t.Fatalf("workers=%d: checkpoint %d acc %x, serial prefix %x", workers, i, c.acc, prefix)
			}
			resumed, err := reduceSpan(ctx, e, Span{c.through, n}, &c.acc, nil, floatSumReducer(), floatTrial)
			if err != nil {
				t.Fatal(err)
			}
			if resumed != full {
				t.Fatalf("workers=%d: resume from checkpoint %d = %x, full = %x", workers, i, resumed, full)
			}
		}
	}
}

// TestReduceSpanCheckpointError pins that a failing checkpoint sink
// aborts the reduction with its error — durability failures surface.
func TestReduceSpanCheckpointError(t *testing.T) {
	ctx := context.Background()
	boom := errors.New("disk full")
	for _, workers := range []int{1, 4} {
		e := Engine{Workers: workers, Chunk: 64, Checkpoint: 64}
		calls := 0
		sink := func(acc float64, through int) error {
			calls++
			if calls == 2 {
				return boom
			}
			return nil
		}
		_, err := reduceSpan(ctx, e, Span{0, 10_000}, nil, sink, floatSumReducer(), floatTrial)
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want %v", workers, err, boom)
		}
	}
}

func TestReduceSpanValidation(t *testing.T) {
	ctx := context.Background()
	red := floatSumReducer()
	if _, err := reduceSpan(ctx, Engine{}, Span{-1, 5}, nil, nil, red, floatTrial); err == nil {
		t.Fatal("negative span accepted")
	}
	if _, err := reduceSpan(ctx, Engine{}, Span{5, 4}, nil, nil, red, floatTrial); err == nil {
		t.Fatal("inverted span accepted")
	}
	// An empty span returns the restored state unchanged.
	init := 42.5
	got, err := reduceSpan(ctx, Engine{}, Span{7, 7}, &init, nil, red, floatTrial)
	if err != nil || got != init {
		t.Fatalf("empty span = %v, %v; want %v, nil", got, err, init)
	}
	// A restored accumulator requires Merge even for a single chunk.
	noMerge := Reducer[float64, float64]{Fold: red.Fold}
	if _, err := reduceSpan(ctx, Engine{}, Span{0, 10}, &init, nil, noMerge, floatTrial); err == nil {
		t.Fatal("init without Merge accepted")
	}
}

// TestReduceSpanCancellation pins that mid-span cancellation returns the
// context error and leaks no goroutines past the drain.
func TestReduceSpanCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	e := Engine{Workers: 4, Chunk: 16}
	var n atomic.Int64
	_, err := reduceSpan(ctx, e, Span{0, 100_000}, nil, nil,
		Reducer[int, int]{
			Fold:  func(acc, i, v int) int { return acc + v },
			Merge: func(into, next int) int { return into + next },
		},
		func(i int) (int, error) {
			if n.Add(1) == 100 {
				cancel()
			}
			return 1, nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	cancel()
}

// reduceSpan runs ReduceSpanScratch for trials that need no per-worker
// scratch.
func reduceSpan[T, A any](ctx context.Context, e Engine, span Span, init *A, ckpt CheckpointFunc[A], r Reducer[T, A], trial func(i int) (T, error)) (A, error) {
	return ReduceSpanScratch(ctx, e, span, init, ckpt, r,
		func() struct{} { return struct{}{} },
		func(i int, _ struct{}) (T, error) { return trial(i) }, nil)
}
