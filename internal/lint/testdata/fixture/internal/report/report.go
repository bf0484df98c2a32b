// Package report sits outside the engine scope: its own statements may
// read the clock, but the closures it hands to the campaign engine may
// not, and its exported fan-out entry points must carry a context.
package report

import (
	"context"
	"math/rand"
	"time"

	"fixture/internal/campaign"
)

// GeneratedAt may read the clock freely — report is not an engine
// package and this value never enters a trial closure.
func GeneratedAt() time.Time {
	return time.Now()
}

// noScratch is the newScratch of trials that need no per-worker state.
func noScratch() struct{} { return struct{}{} }

// Jittered smuggles the wall clock into a trial closure.
func Jittered(ctx context.Context, n int) ([]int, error) {
	return campaign.Collect(ctx, campaign.Engine{}, n, noScratch, func(i int, _ struct{}) (int, error) {
		return int(time.Now().UnixNano()), nil // want:detrand
	})
}

// Noisy smuggles the global rand stream into a fold.
func Noisy(ctx context.Context, n int) (int, error) {
	return campaign.Reduce(ctx, campaign.Engine{}, n, campaign.Reducer[int, int]{
		New:   func() int { return 0 },
		Fold:  func(acc, i, v int) int { return acc + v + rand.Intn(2) }, // want:detrand
		Merge: func(into, next int) int { return into + next },
	}, func(i int) (int, error) { return i, nil })
}

// Materialize fans out through the engine with no way to cancel it.
func Materialize(n int) ([]int, error) { // want:ctxflow
	return campaign.Collect(nil, campaign.Engine{}, n, noScratch, func(i int, _ struct{}) (int, error) { return i, nil })
}

// Gather is the compliant shape of Materialize: the caller's context
// reaches every trial.
func Gather(ctx context.Context, n int) ([]int, error) {
	return campaign.Collect(ctx, campaign.Engine{}, n, noScratch, func(i int, _ struct{}) (int, error) { return i, nil })
}
