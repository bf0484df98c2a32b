package campaign

import (
	"context"
	"runtime"

	"repro/internal/rng"
)

// Engine configures a campaign run. The zero value is ready to use: all
// CPUs and root seed 0.
type Engine struct {
	// Workers bounds the worker pool; <= 0 selects runtime.NumCPU().
	// The pool never exceeds the trial count. Results do not depend on
	// this value — it only sets the parallelism.
	Workers int
	// Seed is the root seed for Stream. Trials that pre-derive their own
	// streams (to stay bit-compatible with an older serial seeding
	// order) never consult it.
	Seed uint64
	// Progress, when non-nil, is invoked as chunks complete with the
	// cumulative number of trials finished and the total trial count —
	// once per trial under Collect, whose chunks are single trials. It
	// may be called concurrently from several workers and must not block;
	// the reported count strictly increases (a tick overtaken by a later
	// one is dropped), it ends at (total, total) on success, and it
	// observes the run but never affects its results.
	Progress func(done, total int)
	// Chunk is the number of trials one reduction chunk covers; <= 0
	// selects DefaultChunk. The chunk size is part of the result
	// contract of a non-associative reduction: at a fixed chunk size the
	// merged accumulator is bit-identical at any worker count, while
	// different chunks may group floating-point folds differently.
	// Collect ignores it (ordered append is exactly associative).
	Chunk int
	// Checkpoint is the trial count between checkpoint callbacks of a
	// span reduction (ReduceSpanScratch with a CheckpointFunc); <= 0
	// selects DefaultCheckpoint. It is rounded down to whole chunks
	// (minimum one), so every checkpoint lands on a chunk boundary and a
	// resumed run regroups nothing. Checkpointing observes a run but
	// never affects its result, so the cadence — unlike Chunk — is not
	// part of the reproducibility contract.
	Checkpoint int
	// Meter, when non-nil, observes the engine: pool size at
	// ReduceStart, chunk fold start/completion events (see Meter) — per
	// trial under Collect, whose chunks are single trials. ChunkDone
	// carries the exact folded count on every exit path, so summing it
	// counts every trial the run executed. Like Progress it is called
	// concurrently, must not block, and observes a run without affecting
	// its results.
	Meter Meter
}

// meter resolves the configured Meter, defaulting to a no-op.
func (e Engine) meter() Meter {
	if e.Meter != nil {
		return e.Meter
	}
	return nopMeter{}
}

// Stream returns trial i's private random substream — a pure function of
// (Seed, i), so a trial may derive it concurrently from inside the pool.
// Trials that need randomness call this; the engine itself never draws.
func (e Engine) Stream(i int) *rng.Stream { return rng.NewSub(e.Seed, uint64(i)) }

// poolSize resolves the effective worker count for n trials.
func (e Engine) poolSize(n int) int {
	w := e.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Collect executes n independent trials across the pool and returns
// their results in trial order — the materializing form of the engine
// (O(n) memory), for fan-outs that need per-trial output. It is a span
// reduction with an ordered-append reducer merging into a buffer sized
// up front. Ordered append is exactly associative, so Collect ignores
// Engine.Chunk and runs one trial per chunk: per-trial load balancing,
// progress and cancellation latency. Engine.Meter sees those
// single-trial chunks like any other, so a metered observer counts
// Collect's trials too.
//
// newScratch runs once per worker, as in ReduceScratch; scratch must not
// affect results. Errors and cancellation behave as in Reduce. n <= 0
// returns nil.
func Collect[T, S any](ctx context.Context, e Engine, n int, newScratch func() S, trial func(i int, scratch S) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	e.Chunk = 1
	out := make([]T, 0, n)
	return ReduceSpanScratch(ctx, e, Span{Lo: 0, Hi: n}, &out, nil, Reducer[T, []T]{
		Fold:  func(acc []T, _ int, v T) []T { return append(acc, v) },
		Merge: func(into, next []T) []T { return append(into, next...) },
	}, newScratch, trial, nil)
}
