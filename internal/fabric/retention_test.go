package fabric

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testbench"
)

// countingCompile is synthCompile with a call counter.
func countingCompile(n *atomic.Int64) CompileFunc {
	return func(ctx context.Context, spec testbench.Spec) (*testbench.ShardRun, error) {
		n.Add(1)
		return synthCompile(ctx, spec)
	}
}

// drain runs w until nothing is pending.
func drain(t *testing.T, w *Worker) {
	t.Helper()
	for {
		worked, err := w.RunOne(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !worked {
			return
		}
	}
}

// heldForms lists the jobs whose control record still holds a compiled
// form.
func heldForms(c *Coordinator) []string {
	var held []string
	for _, id := range c.Jobs() {
		c.mu.Lock()
		if c.jobs[id].sharded != nil {
			held = append(held, id)
		}
		c.mu.Unlock()
	}
	return held
}

// retentionJobs runs done jobs job-0..job-(n-1) on one worker, then a
// failed and a cancelled job, and returns the worker.
func retentionJobs(t *testing.T, c *Coordinator, n int) *Worker {
	t.Helper()
	ctx := context.Background()
	var compiles atomic.Int64
	w := &Worker{Backend: c, ID: "w0", Compile: countingCompile(&compiles), Poll: time.Millisecond}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("job-%d", i)
		spec := synthSpec(1000, uint64(i), 100, 100)
		if err := c.Submit(ctx, id, spec, 4); err != nil {
			t.Fatal(err)
		}
		drain(t, w)
		res, err := c.Wait(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := payloadJSON(t, res), synthBaseline(t, spec); got != want {
			t.Fatalf("%s payload %s, want %s", id, got, want)
		}
		if w.job != id || w.compiled == nil {
			t.Fatalf("after %s the worker holds job %q's compiled form", id, w.job)
		}
	}
	if got := compiles.Load(); got != int64(n) {
		t.Fatalf("worker compiled %d times for %d four-shard jobs, want once per job", got, n)
	}
	failing := synthSpec(1000, 7, 100, 100)
	failing.Params.(map[string]any)["fail_at"] = float64(150)
	if err := c.Submit(ctx, "failed", failing, 2); err != nil {
		t.Fatal(err)
	}
	drain(t, w)
	if _, err := c.Wait(ctx, "failed"); err == nil || !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("failing job: %v", err)
	}
	if err := c.Submit(ctx, "killed", synthSpec(1000, 8, 100, 100), 2); err != nil {
		t.Fatal(err)
	}
	if err := c.Cancel("killed"); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestTerminalJobsReleaseCompiledForms pins the fabric's retention: after
// a sequence of jobs no terminal job — done, failed or cancelled — keeps
// its compiled form on the coordinator, and the worker holds only its
// latest job's.
func TestTerminalJobsReleaseCompiledForms(t *testing.T) {
	c := newTestCoordinator(t)
	retentionJobs(t, c, 5)
	if held := heldForms(c); len(held) != 0 {
		t.Fatalf("terminal jobs %v still hold their compiled forms", held)
	}
}

// TestRecoverTerminalStoreCompilesNothing: a coordinator recovering a
// store of terminal jobs compiles none of them and adopts each in its
// stored phase.
func TestRecoverTerminalStoreCompilesNothing(t *testing.T) {
	c := newTestCoordinator(t)
	ctx := context.Background()
	retentionJobs(t, c, 3)
	var compiles atomic.Int64
	c2 := NewCoordinator(Config{Store: storeOf(c), Compile: countingCompile(&compiles)})
	defer func() {
		if err := c2.Close(); err != nil {
			t.Error(err)
		}
	}()
	if err := c2.RecoverAll(ctx); err != nil {
		t.Fatal(err)
	}
	if got := compiles.Load(); got != 0 {
		t.Fatalf("recovering a store of terminal jobs compiled %d times, want 0", got)
	}
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("job-%d", i)
		st, err := c2.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Phase != PhaseDone {
			t.Fatalf("recovered %s in phase %s", id, st.Phase)
		}
	}
	if _, err := c2.Wait(ctx, "failed"); err == nil || !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("recovered failed job: %v", err)
	}
	if _, err := c2.Wait(ctx, "killed"); err == nil || !strings.Contains(err.Error(), "cancelled") {
		t.Fatalf("recovered cancelled job: %v", err)
	}
	if held := heldForms(c2); len(held) != 0 {
		t.Fatalf("recovered terminal jobs %v hold compiled forms", held)
	}
}
