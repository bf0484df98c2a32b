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

// noScratch is the newScratch of trials that need no per-worker state.
func noScratch() struct{} { return struct{}{} }

// Collected results must be identical at any worker count and land in
// trial order.
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	ctx := context.Background()
	e := Engine{Workers: 1, Seed: 42}
	trial := func(i int, _ struct{}) (float64, error) {
		return float64(i) + e.Stream(i).Float64(), nil
	}
	ref, err := Collect(ctx, e, 64, noScratch, trial)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 8, 0} {
		got, err := Collect(ctx, Engine{Workers: w, Seed: 42}, 64, noScratch, trial)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: trial %d = %v, want %v", w, i, got[i], ref[i])
			}
		}
	}
	// Slot order is trial order.
	for i := 1; i < len(ref); i++ {
		if int(ref[i]) != i {
			t.Fatalf("slot %d holds trial %d", i, int(ref[i]))
		}
	}
}

// Trial substreams are pure functions of (seed, index): independent of
// each other and stable run to run.
func TestEngineStreams(t *testing.T) {
	e := Engine{Seed: 7}
	a := e.Stream(3).Uint64()
	b := e.Stream(3).Uint64()
	if a != b {
		t.Fatalf("stream 3 not reproducible: %v vs %v", a, b)
	}
	if e.Stream(3).Uint64() == e.Stream(4).Uint64() {
		t.Fatal("adjacent substreams coincide")
	}
	if e.Stream(0).Uint64() == (Engine{Seed: 8}).Stream(0).Uint64() {
		t.Fatal("distinct seeds give identical substreams")
	}
}

// The lowest-index error wins, regardless of completion order.
func TestFirstErrorByTrialIndex(t *testing.T) {
	sentinel := errors.New("boom")
	for _, w := range []int{1, 4} {
		_, err := Collect(context.Background(), Engine{Workers: w}, 32, noScratch, func(i int, _ struct{}) (int, error) {
			if i%3 == 2 { // trials 2, 5, 8, ... fail
				return 0, fmt.Errorf("trial %d: %w", i, sentinel)
			}
			return i, nil
		})
		if err == nil || !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: error lost: %v", w, err)
		}
		if got := err.Error(); got != "trial 2: boom" {
			t.Fatalf("workers=%d: first error is %q, want trial 2", w, got)
		}
	}
}

// Per-worker scratch is allocated once per worker and reused.
func TestCollectScratchReuse(t *testing.T) {
	workers := 4
	made := make(chan struct{}, 128)
	_, err := Collect(context.Background(), Engine{Workers: workers}, 100,
		func() []float64 { made <- struct{}{}; return make([]float64, 8) },
		func(i int, scratch []float64) (int, error) {
			scratch[0] = float64(i) // scribble: next trial must not care
			return i, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(made); n > workers {
		t.Fatalf("%d scratch allocations for %d workers", n, workers)
	}
}

func TestEmptyAndSingleTrial(t *testing.T) {
	ctx := context.Background()
	out, err := Collect(ctx, Engine{}, 0, noScratch, func(i int, _ struct{}) (int, error) { return i, nil })
	if err != nil || out != nil {
		t.Fatalf("empty campaign: %v, %v", out, err)
	}
	out, err = Collect(ctx, Engine{Workers: runtime.NumCPU()}, 1, noScratch, func(i int, _ struct{}) (int, error) { return 99, nil })
	if err != nil || len(out) != 1 || out[0] != 99 {
		t.Fatalf("single trial: %v, %v", out, err)
	}
}

// A context cancelled before the run starts aborts immediately.
func TestRunAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := atomic.Int64{}
	_, err := Collect(ctx, Engine{Workers: 4}, 100, noScratch, func(i int, _ struct{}) (int, error) {
		ran.Add(1)
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d trials ran under a cancelled context", n)
	}
}

// Cancelling mid-flight returns context.Canceled within roughly one
// trial's latency and leaks no goroutines — the worker pool, the merger
// and the feeder all drain.
func TestRunCancelMidFlightPromptAndLeakFree(t *testing.T) {
	for _, workers := range []int{1, 4} {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		var once sync.Once
		started := make(chan struct{})
		type result struct {
			err error
		}
		doneCh := make(chan result, 1)
		go func() {
			_, err := Collect(ctx, Engine{Workers: workers, Progress: func(done, total int) {
				once.Do(func() { close(started) })
			}}, 10_000, noScratch, func(i int, _ struct{}) (int, error) {
				time.Sleep(200 * time.Microsecond) // one trial's latency
				return i, nil
			})
			doneCh <- result{err: err}
		}()
		<-started
		cancel()
		select {
		case r := <-doneCh:
			if !errors.Is(r.err, context.Canceled) {
				t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, r.err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("workers=%d: cancellation not honoured within 5s", workers)
		}
		// The pool must have drained: allow the runtime a moment to retire
		// the worker goroutines, then require the count back near baseline.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if got := runtime.NumGoroutine(); got > before {
			t.Fatalf("workers=%d: %d goroutines after cancel, started with %d", workers, got, before)
		}
	}
}

// Collect's progress is per trial whatever Engine.Chunk says: serially
// every trial ticks once; in parallel the count strictly increases (an
// overtaken tick is dropped, never delivered late) and ends at (n, n).
func TestProgressReporting(t *testing.T) {
	for _, workers := range []int{1, 3} {
		var mu sync.Mutex
		last, calls := 0, 0
		n := 50
		_, err := Collect(context.Background(), Engine{Workers: workers, Chunk: 16, Progress: func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			calls++
			if total != n {
				t.Errorf("total = %d, want %d", total, n)
			}
			if done <= last {
				t.Errorf("progress not increasing: %d after %d", done, last)
			}
			last = done
		}}, n, noScratch, func(i int, _ struct{}) (int, error) { return i, nil })
		if err != nil {
			t.Fatal(err)
		}
		if last != n {
			t.Fatalf("workers=%d: last progress call reported %d, want %d", workers, last, n)
		}
		if workers == 1 && calls != n {
			t.Fatalf("workers=1: %d progress calls, want one per trial (%d)", calls, n)
		}
	}
}
