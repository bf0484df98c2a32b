package fabric

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/metrics"
	"repro/internal/testbench"
)

// TestMemoryStore: a memory store's jobs validate and apply every append
// the durable store does, write nothing, and drop their shard blobs once
// finished; there is nothing to list, reopen or read back.
func TestMemoryStore(t *testing.T) {
	s := NewMemoryStore()
	j, err := s.CreateJob("j1", testSpec(), 1000, testPlan(t, 1000, 2, 100))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendCheckpoint(0, 200, []byte("blob-200")); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendCheckpoint(0, 100, []byte("backwards")); err == nil {
		t.Fatal("memory job accepted a checkpoint below its high-water mark")
	}
	if st := j.State(); st.Shards[0].Through != 200 || string(st.Shards[0].Acc) != "blob-200" {
		t.Fatalf("checkpoint not applied: %+v", st.Shards[0])
	}
	for shard := 0; shard < 2; shard++ {
		if err := j.AppendShardDone(shard, []byte("final")); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.AppendDone(&testbench.Result{Spec: testSpec()}); err != nil {
		t.Fatal(err)
	}
	st := j.State()
	if st.Phase != PhaseDone {
		t.Fatalf("phase %s after AppendDone", st.Phase)
	}
	for i, sh := range st.Shards {
		if !sh.Done || sh.Through != sh.Span.Hi || sh.Acc != nil {
			t.Fatalf("finished shard %d kept %+v", i, sh)
		}
	}
	if _, err := j.Result(); err == nil {
		t.Fatal("memory job read back a result")
	}
	if ids, err := s.Jobs(); err != nil || len(ids) != 0 {
		t.Fatalf("memory store lists %v, %v", ids, err)
	}
	if _, err := s.OpenJob("j1"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("memory store reopened a job: %v", err)
	}
	if _, err := os.Stat("jobs"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("memory store touched the working directory: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendCancelled(); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("append after Close: %v", err)
	}
}

// TestRetentionEvictsOldestFinished: past MaxRetained finished jobs the
// coordinator evicts the oldest-finished one, closes its handle and
// answers its id with ErrUnknownJob, whatever the store; a running job
// is never evicted. Count and mcfabric_jobs_evicted_total report every
// eviction, so evicted + retained is every finished job.
func TestRetentionEvictsOldestFinished(t *testing.T) {
	stores := []struct {
		name string
		open func(t *testing.T) *Store
	}{
		{"memory", func(*testing.T) *Store { return NewMemoryStore() }},
		{"durable", func(t *testing.T) *Store { return openTestStore(t) }},
	}
	for _, tc := range stores {
		t.Run(tc.name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			c := NewCoordinator(Config{Store: tc.open(t), Compile: synthCompile, Metrics: NewMetrics(reg)})
			defer func() {
				if err := c.Close(); err != nil {
					t.Error(err)
				}
			}()
			ctx := context.Background()
			if err := c.Submit(ctx, "long", synthSpec(1000, 1, 100, 100), 1); err != nil {
				t.Fatal(err)
			}
			const extra = 3
			var oldest *Job
			for i := 0; i < MaxRetained+extra; i++ {
				id := fmt.Sprintf("job-%04d", i)
				if err := c.Submit(ctx, id, synthSpec(100, uint64(i), 100, 100), 1); err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					r, err := c.run(id)
					if err != nil {
						t.Fatal(err)
					}
					oldest = r.job
				}
				if err := c.Cancel(id); err != nil {
					t.Fatal(err)
				}
			}
			if running, retained, evicted := c.Count(); running != 1 || retained != MaxRetained || evicted != extra {
				t.Fatalf("count = %d running, %d retained, %d evicted; want 1, %d, %d", running, retained, evicted, MaxRetained, extra)
			}
			if v := snapshotTotal(t, reg, "mcfabric_jobs_evicted_total"); v != extra {
				t.Fatalf("mcfabric_jobs_evicted_total = %v, want %d", v, extra)
			}
			if n := len(c.Jobs()); n != MaxRetained+1 {
				t.Fatalf("coordinator holds %d jobs, want %d", n, MaxRetained+1)
			}
			for i := 0; i < MaxRetained+extra; i++ {
				_, err := c.Status(fmt.Sprintf("job-%04d", i))
				if evicted := i < extra; evicted != errors.Is(err, ErrUnknownJob) {
					t.Fatalf("job-%04d: status error %v, evicted = %v", i, err, evicted)
				}
			}
			if st, err := c.Status("long"); err != nil || st.Phase != PhaseRunning {
				t.Fatalf("running job: %+v, %v", st.Phase, err)
			}
			if err := oldest.AppendCancelled(); err == nil || !strings.Contains(err.Error(), "closed") {
				t.Fatalf("evicted job's handle still open: %v", err)
			}
		})
	}
}

// TestInProcessWorkerRunsCoordinatorForm: a Worker without Compile whose
// Backend is the coordinator runs the coordinator's own compiled form —
// one compile per job — and the job's record carries its result and
// finish time once done.
func TestInProcessWorkerRunsCoordinatorForm(t *testing.T) {
	var compiles atomic.Int64
	c := newTestCoordinator(t, func(cfg *Config) { cfg.Compile = countingCompile(&compiles) })
	ctx := context.Background()
	w := &Worker{Backend: c, ID: "w0"}
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("job-%d", i)
		spec := synthSpec(1000, uint64(i), 100, 100)
		if err := c.Submit(ctx, id, spec, 4); err != nil {
			t.Fatal(err)
		}
		drain(t, w)
		info, err := c.Info(id)
		if err != nil {
			t.Fatal(err)
		}
		if info.Phase != PhaseDone || info.Result == nil || info.Finished.Before(info.Created) {
			t.Fatalf("%s record: phase %s, result %v, created %v, finished %v", id, info.Phase, info.Result, info.Created, info.Finished)
		}
		if got, want := payloadJSON(t, info.Result), synthBaseline(t, spec); got != want {
			t.Fatalf("%s payload %s, want %s", id, got, want)
		}
	}
	if got := compiles.Load(); got != 3 {
		t.Fatalf("%d compiles for 3 jobs run in process, want one each", got)
	}
}

// Submit bounds the shard count: MaxShards plans, one more is refused
// without creating the job (PlanShards alone would write 10^6 spans of
// a million-trial, one-trial-chunk job into its metadata).
func TestSubmitBoundsShards(t *testing.T) {
	c := newTestCoordinator(t)
	ctx := context.Background()
	if err := c.Submit(ctx, "wide", synthSpec(1_000_000, 1, 1, 0), MaxShards+1); err == nil {
		t.Fatal("submit with MaxShards+1 shards accepted")
	}
	if _, err := c.Status("wide"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("refused job has status (err %v)", err)
	}
	if err := c.Submit(ctx, "max", synthSpec(1_000_000, 1, 1, 0), MaxShards); err != nil {
		t.Fatal(err)
	}
	st, err := c.Status("max")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Shards) != MaxShards {
		t.Fatalf("plan has %d shards, want %d", len(st.Shards), MaxShards)
	}
}
