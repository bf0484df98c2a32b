package fabric

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testbench"
)

// racers is how many goroutines race to create one id, and races how
// many ids each duplicate-creation test races them on.
const racers, races = 8, 100

// race runs f(0), …, f(racers-1) on goroutines released together and
// fails unless exactly one call succeeds and every other one reports
// that the job already exists. It returns the winner's index.
func race(t *testing.T, id string, f func(i int) error) int {
	t.Helper()
	start := make(chan struct{})
	errs := make([]error, racers)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			errs[i] = f(i)
		}(i)
	}
	close(start)
	wg.Wait()
	winner, won := -1, 0
	for i, err := range errs {
		if err == nil {
			winner, won = i, won+1
		} else if !strings.Contains(err.Error(), "already exists") {
			t.Fatalf("%s: a losing create failed with %v, want the already-exists error", id, err)
		}
	}
	if won != 1 {
		t.Fatalf("%s: %d of %d concurrent creates succeeded, want exactly 1", id, won, racers)
	}
	return winner
}

// Of several concurrent submissions of one id exactly one succeeds, on
// both store kinds. The compile step sleeps briefly so the submissions
// overlap the way they do when a real campaign takes milliseconds to
// compile.
func TestConcurrentSubmitsOfOneIDHaveOneWinner(t *testing.T) {
	slowCompile := func(ctx context.Context, spec testbench.Spec) (*testbench.ShardRun, error) {
		time.Sleep(50 * time.Microsecond)
		return synthCompile(ctx, spec)
	}
	for _, kind := range []struct {
		name  string
		store func(*testing.T) *Store
	}{
		{"disk", func(t *testing.T) *Store { return openTestStore(t) }},
		{"memory", func(*testing.T) *Store { return NewMemoryStore() }},
	} {
		t.Run(kind.name, func(t *testing.T) {
			c := newTestCoordinator(t, func(cfg *Config) {
				cfg.Store = kind.store(t)
				cfg.Compile = slowCompile
			})
			for n := 0; n < races; n++ {
				id := fmt.Sprintf("dup-%d", n)
				race(t, id, func(int) error {
					return c.Submit(context.Background(), id, synthSpec(100, uint64(n), 10, 10), 2)
				})
			}
			if running, _, _ := c.Count(); running != races {
				t.Fatalf("coordinator holds %d running jobs, want %d", running, races)
			}
		})
	}
}

// Coordinators in different processes share a disk store without
// sharing reservations; the store itself lets exactly one of several
// concurrent creators of one id through.
func TestConcurrentCreateJobOnOneStore(t *testing.T) {
	s := openTestStore(t)
	plan := testPlan(t, 100, 2, 10)
	for n := 0; n < races; n++ {
		id := fmt.Sprintf("dup-%d", n)
		jobs := make([]*Job, racers)
		winner := race(t, id, func(i int) (err error) {
			jobs[i], err = s.CreateJob(id, testSpec(), 100, plan)
			return err
		})
		if err := jobs[winner].Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// A job whose Submit is still compiling holds its id, so a second
// Submit of it fails and a Resume leaves it alone, but Lease, Jobs,
// Info and Count do not see it. A failed compile gives the id back.
func TestSubmitReservation(t *testing.T) {
	var calls atomic.Int32
	entered, proceed := make(chan struct{}), make(chan struct{})
	c := newTestCoordinator(t, func(cfg *Config) {
		cfg.Compile = func(ctx context.Context, spec testbench.Spec) (*testbench.ShardRun, error) {
			if calls.Add(1) == 1 {
				close(entered)
				<-proceed
				return nil, errors.New("injected compile failure")
			}
			return synthCompile(ctx, spec)
		}
	})
	ctx := context.Background()
	spec := synthSpec(100, 1, 10, 10)
	first := make(chan error, 1)
	go func() { first <- c.Submit(ctx, "job", spec, 2) }()
	<-entered

	if err := c.Submit(ctx, "job", spec, 2); err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Fatalf("second submit during the first one's compile: %v, want the already-exists error", err)
	}
	if err := c.Resume(ctx, "job"); err != nil {
		t.Fatalf("resume of a job being submitted: %v", err)
	}
	if ids := c.Jobs(); len(ids) != 0 {
		t.Fatalf("Jobs lists %v while the only job is still compiling", ids)
	}
	if _, err := c.Info("job"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Info of a compiling job: %v, want ErrUnknownJob", err)
	}
	if running, retained, _ := c.Count(); running != 0 || retained != 0 {
		t.Fatalf("Count = %d running, %d retained while the only job is still compiling", running, retained)
	}
	if ls, ok, err := c.Lease(ctx, "w"); err != nil || ok {
		t.Fatalf("Lease while the only job is still compiling: %+v, ok=%v, err=%v", ls, ok, err)
	}

	close(proceed)
	if err := <-first; err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("first submit: %v, want the injected compile failure", err)
	}
	if err := c.Submit(ctx, "job", spec, 2); err != nil {
		t.Fatalf("submit after a failed compile released the id: %v", err)
	}
	if ids := c.Jobs(); len(ids) != 1 || ids[0] != "job" {
		t.Fatalf("Jobs = %v, want [job]", ids)
	}
}

// A worker that is already polling can lease a new job's shard the
// moment Submit installs the job. Submit must not read the job's queue
// after it releases the coordinator's lock; under -race this test fails
// on a Submit that does.
func TestSubmitLeavesQueueToConcurrentLease(t *testing.T) {
	c := newTestCoordinator(t)
	ctx := context.Background()
	leased := make(chan *Lease, 1)
	go func() {
		l, ok, err := c.Lease(ctx, "w")
		for err == nil && !ok {
			runtime.Gosched()
			l, ok, err = c.Lease(ctx, "w")
		}
		if err != nil {
			t.Error(err)
		}
		leased <- l
	}()
	if err := c.Submit(ctx, "job", synthSpec(1000, 7, 100, 0), 1); err != nil {
		t.Fatal(err)
	}
	if l := <-leased; l == nil || l.Job != "job" || l.Shard != 0 {
		t.Fatalf("concurrent lease %+v, want job shard 0", l)
	}
}
