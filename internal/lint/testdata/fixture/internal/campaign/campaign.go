// Package campaign is a miniature stand-in for the real reduction
// engine: just enough surface (Engine, Reducer, Collect, Reduce) for the
// fixture packages to exercise mclint's closure and cancellation rules.
// Its import path ends in internal/campaign, which is what puts it — and
// every closure handed to it — inside analyzer scope.
package campaign

import "context"

// Engine mirrors the real engine's option struct.
type Engine struct {
	Workers int
	Seed    uint64
}

// Reducer mirrors the real fold/merge triple.
type Reducer[T, A any] struct {
	New   func() A
	Fold  func(acc A, i int, v T) A
	Merge func(into, next A) A
}

// Collect executes trial serially on one scratch and collects the
// results. The fixtures only need it to type-check, never to run fast.
func Collect[T, S any](ctx context.Context, eng Engine, n int, newScratch func() S, trial func(i int, scratch S) (T, error)) ([]T, error) {
	out := make([]T, 0, n)
	scratch := newScratch()
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		v, err := trial(i, scratch)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// Reduce folds trial results into the reducer's accumulator.
func Reduce[T, A any](ctx context.Context, eng Engine, n int, r Reducer[T, A], trial func(i int) (T, error)) (A, error) {
	acc := r.New()
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return acc, err
		}
		v, err := trial(i)
		if err != nil {
			return acc, err
		}
		acc = r.Fold(acc, i, v)
	}
	return acc, nil
}

// Span mirrors the real engine's half-open trial range.
type Span struct {
	Lo, Hi int
}

// CheckpointFunc mirrors the real engine's durable-checkpoint sink.
type CheckpointFunc[A any] func(acc A, through int) error

// ReduceSpan mirrors the fabric's worker entry point: the span
// reduction with an optional checkpoint sink. Like Collect and Reduce it
// only needs to type-check.
func ReduceSpan[T, A any](ctx context.Context, eng Engine, span Span, init *A, ckpt CheckpointFunc[A], r Reducer[T, A], trial func(i int) (T, error)) (A, error) {
	acc := r.New()
	if init != nil {
		acc = *init
	}
	for i := span.Lo; i < span.Hi; i++ {
		if err := ctx.Err(); err != nil {
			return acc, err
		}
		v, err := trial(i)
		if err != nil {
			return acc, err
		}
		acc = r.Fold(acc, i, v)
		if ckpt != nil {
			if err := ckpt(acc, i+1); err != nil {
				return acc, err
			}
		}
	}
	return acc, nil
}
