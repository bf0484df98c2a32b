package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// sumReducer accumulates float64 trial results — deliberately
// non-associative in the exact sense, so chunk grouping shows up in the
// bits if the merge order ever drifts.
func sumReducer() Reducer[float64, float64] {
	return Reducer[float64, float64]{
		Fold:  func(acc float64, _ int, v float64) float64 { return acc + v },
		Merge: func(into, next float64) float64 { return into + next },
	}
}

// Reduce must agree bit-for-bit with folding Collect's result slice in
// trial order at the same chunk size, at any worker count.
func TestReduceMatchesCollectFold(t *testing.T) {
	ctx := context.Background()
	const n = 1000
	trial := func(i int) (float64, error) {
		return (Engine{Seed: 5}).Stream(i).Float64() - 0.5, nil
	}
	out, err := Collect(ctx, Engine{Workers: 1, Seed: 5}, n, noScratch,
		func(i int, _ struct{}) (float64, error) { return trial(i) })
	if err != nil {
		t.Fatal(err)
	}
	// Reference: fold the slice with the same chunk grouping.
	const chunk = 64
	want := 0.0
	for lo := 0; lo < n; lo += chunk {
		part := 0.0
		for i := lo; i < min(lo+chunk, n); i++ {
			part += out[i]
		}
		want += part
	}
	for _, w := range []int{1, 2, 8, 0} {
		got, err := Reduce(ctx, Engine{Workers: w, Seed: 5, Chunk: chunk}, n, sumReducer(), trial)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("workers=%d: sum = %v, want %v", w, got, want)
		}
	}
}

// Ordered appends: the merged accumulator must list every trial in index
// order at any worker count — the contract the fault table and the MC
// envelope rely on.
func TestReduceMergeOrderIsTrialOrder(t *testing.T) {
	ctx := context.Background()
	red := Reducer[int, []int]{
		Fold:  func(acc []int, _ int, v int) []int { return append(acc, v) },
		Merge: func(into, next []int) []int { return append(into, next...) },
	}
	for _, w := range []int{1, 3, 16} {
		got, err := Reduce(ctx, Engine{Workers: w, Chunk: 7}, 200, red,
			func(i int) (int, error) { return i, nil })
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 200 {
			t.Fatalf("workers=%d: %d items", w, len(got))
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("workers=%d: slot %d holds trial %d", w, i, v)
			}
		}
	}
}

// The lowest-index trial error wins, regardless of worker count and of
// which chunk finishes first, and later chunks are not started.
func TestReduceLowestIndexError(t *testing.T) {
	sentinel := errors.New("boom")
	for _, w := range []int{1, 4} {
		var ran atomic.Int64
		_, err := Reduce(context.Background(), Engine{Workers: w, Chunk: 8}, 640, sumReducer(),
			func(i int) (float64, error) {
				ran.Add(1)
				if i >= 100 && i%25 == 0 { // trials 100, 125, 150, ... fail
					return 0, fmt.Errorf("trial %d: %w", i, sentinel)
				}
				return 1, nil
			})
		if err == nil || !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: error lost: %v", w, err)
		}
		if got := err.Error(); got != "trial 100: boom" {
			t.Fatalf("workers=%d: first error is %q, want trial 100", w, got)
		}
		// The feeder stops after the failure: far fewer than 640 trials run.
		if n := ran.Load(); n >= 640 {
			t.Fatalf("workers=%d: all %d trials ran despite early failure", w, n)
		}
	}
}

// Reduce with an empty or single-trial campaign, and missing hooks.
func TestReduceDegenerate(t *testing.T) {
	ctx := context.Background()
	red := sumReducer()
	got, err := Reduce(ctx, Engine{}, 0, red, func(i int) (float64, error) { return 1, nil })
	if err != nil || got != 0 {
		t.Fatalf("empty: %v, %v", got, err)
	}
	got, err = Reduce(ctx, Engine{Workers: 8}, 1, red, func(i int) (float64, error) { return 42, nil })
	if err != nil || got != 42 {
		t.Fatalf("single: %v, %v", got, err)
	}
	if _, err := Reduce(ctx, Engine{}, 3, Reducer[int, int]{}, func(i int) (int, error) { return i, nil }); err == nil {
		t.Fatal("nil Fold accepted")
	}
	if _, err := Reduce(ctx, Engine{Chunk: 1}, 3,
		Reducer[int, int]{Fold: func(a, _, v int) int { return a + v }},
		func(i int) (int, error) { return i, nil }); err == nil {
		t.Fatal("multi-chunk reduction without Merge accepted")
	}
}

// Per-worker scratch is allocated once per worker and reused across
// chunks.
func TestReduceScratchReuse(t *testing.T) {
	workers := 4
	var made atomic.Int64
	_, err := ReduceScratch(context.Background(), Engine{Workers: workers, Chunk: 5}, 200,
		sumReducer(),
		func() []float64 { made.Add(1); return make([]float64, 4) },
		func(i int, scratch []float64) (float64, error) {
			scratch[0] = float64(i)
			return 1, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if n := made.Load(); n > int64(workers) {
		t.Fatalf("%d scratch allocations for %d workers", n, workers)
	}
}

// Progress under Reduce: counts never decrease, total is constant, and
// the final call reports (n, n).
func TestReduceProgressMonotone(t *testing.T) {
	for _, w := range []int{1, 4} {
		var mu sync.Mutex
		last, calls := 0, 0
		sawFinal := false
		n := 500
		_, err := Reduce(context.Background(), Engine{Workers: w, Chunk: 16, Progress: func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			calls++
			if total != n {
				t.Errorf("total = %d, want %d", total, n)
			}
			if done < last {
				t.Errorf("progress went backwards: %d after %d", done, last)
			}
			last = done
			if done == n {
				sawFinal = true
			}
		}}, n, sumReducer(), func(i int) (float64, error) { return 1, nil })
		if err != nil {
			t.Fatal(err)
		}
		if !sawFinal {
			t.Fatalf("workers=%d: final (n, n) progress call missing", w)
		}
		// Chunk-granular: one tick per chunk, not per trial.
		if wantCalls := (n + 15) / 16; calls > wantCalls {
			t.Fatalf("workers=%d: %d progress calls for %d chunks", w, calls, wantCalls)
		}
	}
}

// Cancelling mid-chunk aborts within one trial's latency and leaks no
// goroutines — the pool, the merger and the feeder all drain.
func TestReduceCancelMidChunkPromptAndLeakFree(t *testing.T) {
	for _, workers := range []int{1, 4} {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		started := make(chan struct{})
		var once sync.Once
		errCh := make(chan error, 1)
		go func() {
			_, err := Reduce(ctx, Engine{Workers: workers, Chunk: 1 << 20}, 1<<20, sumReducer(),
				func(i int) (float64, error) {
					once.Do(func() { close(started) })
					time.Sleep(100 * time.Microsecond)
					return 1, nil
				})
			errCh <- err
		}()
		<-started
		cancel()
		select {
		case err := <-errCh:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("workers=%d: mid-chunk cancellation not honoured within 5s", workers)
		}
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if got := runtime.NumGoroutine(); got > before {
			t.Fatalf("workers=%d: %d goroutines after cancel, started with %d", workers, got, before)
		}
	}
}

// A context cancelled before the run starts aborts immediately.
func TestReduceAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	_, err := Reduce(ctx, Engine{Workers: 4}, 100, sumReducer(),
		func(i int) (float64, error) { ran.Add(1); return 1, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d trials ran under a cancelled context", n)
	}
}

// The memory contract of the streaming engine: total bytes allocated by
// a Reduce run do not scale with the trial count — a 1,000,000-trial
// reduction allocates no more than a small multiple of a 10,000-trial
// one, while Collect's result slots alone are O(trials).
func TestReduceFlatMemoryAt10kVs1M(t *testing.T) {
	trial := func(i int) (float64, error) { return float64(i&1) - 0.5, nil }
	alloc := func(run func()) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	ctx := context.Background()
	reduceBytes := func(n int) uint64 {
		return alloc(func() {
			if _, err := Reduce(ctx, Engine{Workers: 4}, n, sumReducer(), trial); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := reduceBytes(10_000)
	big := reduceBytes(1_000_000)
	t.Logf("Reduce allocated %d B at 10k trials, %d B at 1M trials", small, big)
	// 100x the trials must cost far less than 100x the bytes; the bound
	// is generous (chunk bookkeeping grows with chunk count) but a result
	// slice would blow through it by orders of magnitude.
	if big > 10*small+1<<20 {
		t.Fatalf("Reduce memory scales with trials: %d B at 10k vs %d B at 1M", small, big)
	}
	collectBytes := alloc(func() {
		if _, err := Collect(ctx, Engine{Workers: 1}, 1_000_000, noScratch,
			func(i int, _ struct{}) (float64, error) { return trial(i) }); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Collect allocated %d B at 1M trials", collectBytes)
	if collectBytes < 8*1_000_000 { // the float64 result slots alone
		t.Fatalf("Collect allocated only %d B for 1M trials — slice accounting broken?", collectBytes)
	}
	if big >= collectBytes/10 {
		t.Fatalf("Reduce (%d B) not an order of magnitude under Collect (%d B) at 1M trials", big, collectBytes)
	}
}
