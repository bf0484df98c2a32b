package campaign

import (
	"context"
)

// DefaultChunk is the trial count one reduction chunk covers when
// Engine.Chunk is unset. Large enough that per-chunk overhead (one
// accumulator allocation, one progress tick, one channel round trip) is
// negligible against real trial work; small enough that progress stays
// lively and a cancelled run aborts quickly.
const DefaultChunk = 4096

// Reducer describes a streaming reduction over trial results: how to
// start a chunk accumulator, how to fold one trial into it, and how to
// merge two chunk accumulators.
//
// Determinism contract: trials are folded in ascending index order
// within each chunk, and chunks are merged in ascending chunk order, so
// for a fixed chunk size (Engine.Chunk) the final accumulator is
// bit-identical at any worker count — even when Fold/Merge are not
// associative in the exact sense (floating-point sums, ordered appends).
type Reducer[T, A any] struct {
	// New returns a fresh chunk accumulator; nil means the zero A.
	New func() A
	// Fold absorbs trial i's result v into the chunk accumulator and
	// returns the updated accumulator. Required.
	Fold func(acc A, i int, v T) A
	// Merge combines the running global accumulator with the next chunk's
	// accumulator (ascending chunk order) and returns the result.
	// Required when a run spans more than one chunk.
	Merge func(into, next A) A
}

// Reduce executes n independent trials across the pool and streams their
// results through the reducer instead of materializing them: each worker
// folds the trials of one chunk (Engine.Chunk, default DefaultChunk)
// into a per-chunk accumulator, and completed chunks are merged in chunk
// index order. Peak memory is O(workers + chunk), independent of n —
// the mode million-trial campaigns run in.
//
// The error of the lowest-index failing trial is returned (chunks beyond the first
// failing one are not started, which cannot hide a lower-index error
// because chunks are dispatched in ascending order), and a cancelled
// context aborts within one trial's latency, drains the pool, and
// returns ctx.Err(). Progress ticks once per completed chunk with the
// cumulative trial count, so it is monotone and ends at (n, n).
func Reduce[T, A any](ctx context.Context, e Engine, n int, r Reducer[T, A], trial func(i int) (T, error)) (A, error) {
	return ReduceScratch(ctx, e, n, r,
		func() struct{} { return struct{}{} },
		func(i int, _ struct{}) (T, error) { return trial(i) })
}

// ReduceScratch is Reduce with per-worker scratch state: newScratch runs
// once per worker and its value is threaded into every trial that worker
// folds. Scratch must not affect results.
//
// It is the span [0, n) of the durable span engine with no restored
// state and no checkpoint sink — see ReduceSpanScratch for the
// checkpoint/resume and sharding form.
func ReduceScratch[T, A, S any](ctx context.Context, e Engine, n int, r Reducer[T, A], newScratch func() S, trial func(i int, scratch S) (T, error)) (A, error) {
	if n < 0 {
		n = 0
	}
	return ReduceSpanScratch(ctx, e, Span{Lo: 0, Hi: n}, nil, nil, r, newScratch, trial, nil)
}
