package fabric

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/testbench"
)

// The synthetic campaign: cheap deterministic trials through the real
// span engine, with an accumulator that is exactly associative under
// Merge yet sensitive to trial order, duplication, and omission — a
// rolling polynomial hash over per-trial values. Any fabric bug that
// reorders, drops, replays, or double-counts a trial changes the hash.

type synthAcc struct {
	N int
	H uint64
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// pow31 computes 31^n mod 2^64, the shift that splices two hash runs:
// merge(a, b) = a.H * 31^b.N + b.H is associative because the hash is a
// polynomial evaluation.
func pow31(n int) uint64 {
	var out uint64 = 1
	var base uint64 = 31
	for ; n > 0; n >>= 1 {
		if n&1 == 1 {
			out *= base
		}
		base *= base
	}
	return out
}

func synthReducer() campaign.CheckpointReducer[uint64, synthAcc] {
	return campaign.CheckpointReducer[uint64, synthAcc]{
		Reducer: campaign.Reducer[uint64, synthAcc]{
			Fold: func(a synthAcc, _ int, v uint64) synthAcc {
				a.N++
				a.H = a.H*31 + v
				return a
			},
			Merge: func(into, next synthAcc) synthAcc {
				return synthAcc{N: into.N + next.N, H: into.H*pow31(next.N) + next.H}
			},
		},
		Marshal: func(a synthAcc) ([]byte, error) {
			out := make([]byte, 16)
			binary.LittleEndian.PutUint64(out, uint64(a.N))
			binary.LittleEndian.PutUint64(out[8:], a.H)
			return out, nil
		},
		Unmarshal: func(data []byte) (synthAcc, error) {
			if len(data) != 16 {
				return synthAcc{}, fmt.Errorf("synthetic blob is %d bytes, want 16", len(data))
			}
			return synthAcc{N: int(binary.LittleEndian.Uint64(data)), H: binary.LittleEndian.Uint64(data[8:])}, nil
		},
	}
}

// synthCompile is the CompileFunc tests inject: the trial count rides in
// the spec's params (surviving the job.json round trip), the seed and
// engine knobs in their usual spec fields. failAt >= 0 makes that trial
// index error, for the failure path.
func synthCompile(ctx context.Context, spec testbench.Spec) (*testbench.ShardRun, error) {
	params, ok := spec.Params.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("synthetic params %T", spec.Params)
	}
	n, ok := params["n"].(float64)
	if !ok || n < 1 {
		return nil, fmt.Errorf("synthetic trial count %v", params["n"])
	}
	failAt := -1
	if f, ok := params["fail_at"].(float64); ok {
		failAt = int(f)
	}
	red := synthReducer()
	seed := spec.Seed
	eng := campaign.Engine{Workers: spec.Workers, Seed: seed, Chunk: spec.Chunk, Checkpoint: spec.Checkpoint}
	return &testbench.ShardRun{
		Spec:   spec,
		Trials: int(n),
		Run: func(ctx context.Context, span campaign.Span, init []byte, sink testbench.CheckpointSink) ([]byte, error) {
			if span.Lo < 0 || span.Hi < span.Lo || span.Hi > int(n) {
				return nil, fmt.Errorf("span [%d, %d) outside the %d-trial campaign", span.Lo, span.Hi, int(n))
			}
			var initAcc *synthAcc
			if len(init) > 0 {
				a, err := red.Unmarshal(init)
				if err != nil {
					return nil, err
				}
				initAcc = &a
			}
			var ckpt campaign.CheckpointFunc[synthAcc]
			if sink != nil {
				ckpt = func(acc synthAcc, through int) error {
					blob, err := red.Marshal(acc)
					if err != nil {
						return err
					}
					return sink(blob, through)
				}
			}
			acc, err := campaign.ReduceSpanScratch(ctx, eng, span, initAcc, ckpt, red.Reducer, func() struct{} { return struct{}{} }, func(i int, _ struct{}) (uint64, error) {
				if i == failAt {
					return 0, fmt.Errorf("trial %d: injected failure", i)
				}
				return splitmix64(seed ^ uint64(i)), nil
			}, nil)
			if err != nil {
				return nil, err
			}
			return red.Marshal(acc)
		},
		Merge: func(into, next []byte) ([]byte, error) {
			a, err := red.Unmarshal(into)
			if err != nil {
				return nil, err
			}
			b, err := red.Unmarshal(next)
			if err != nil {
				return nil, err
			}
			return red.Marshal(red.Reducer.Merge(a, b))
		},
		Finalize: func(blob []byte) (*testbench.Result, error) {
			acc, err := red.Unmarshal(blob)
			if err != nil {
				return nil, err
			}
			return &testbench.Result{
				Spec:    spec,
				Payload: map[string]any{"n": acc.N, "hash": fmt.Sprintf("%016x", acc.H)},
			}, nil
		},
	}, nil
}

func synthSpec(n int, seed uint64, chunk, checkpoint int) testbench.Spec {
	return testbench.Spec{
		Campaign:   "synthetic",
		Seed:       seed,
		Chunk:      chunk,
		Checkpoint: checkpoint,
		Params:     map[string]any{"n": float64(n)},
	}
}

// synthBaseline runs the synthetic campaign uninterrupted on a single
// node and returns its payload JSON — the bits every fabric execution
// shape must reproduce.
func synthBaseline(t *testing.T, spec testbench.Spec) string {
	t.Helper()
	run, err := synthCompile(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := run.Run(context.Background(), campaign.Span{Lo: 0, Hi: run.Trials}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := run.Finalize(blob)
	if err != nil {
		t.Fatal(err)
	}
	return payloadJSON(t, res)
}

func payloadJSON(t *testing.T, res *testbench.Result) string {
	t.Helper()
	data, err := json.Marshal(res.Payload)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func newTestCoordinator(t *testing.T, opts ...func(*Config)) *Coordinator {
	t.Helper()
	store := openTestStore(t)
	cfg := Config{Store: store, Compile: synthCompile}
	for _, opt := range opts {
		opt(&cfg)
	}
	c := NewCoordinator(cfg)
	t.Cleanup(func() {
		if err := c.Close(); err != nil {
			t.Error(err)
		}
	})
	return c
}

func runWorkers(ctx context.Context, t *testing.T, b Backend, n int) *sync.WaitGroup {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w := &Worker{Backend: b, ID: fmt.Sprintf("w%d", i), Compile: synthCompile, Poll: time.Millisecond}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil {
				t.Errorf("worker %s: %v", w.ID, err)
			}
		}()
	}
	return &wg
}

func TestCoordinatorRunsJobToCompletion(t *testing.T) {
	spec := synthSpec(100_000, 42, 1024, 8192)
	want := synthBaseline(t, spec)
	c := newTestCoordinator(t)
	ctx := context.Background()
	if err := c.Submit(ctx, "job", spec, 4); err != nil {
		t.Fatal(err)
	}
	wctx, stop := context.WithCancel(ctx)
	defer stop()
	wg := runWorkers(wctx, t, c, 2)
	res, err := c.Wait(ctx, "job")
	stop()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got := payloadJSON(t, res); got != want {
		t.Fatalf("sharded payload %s, single-node %s", got, want)
	}
	st, err := c.Status("job")
	if err != nil {
		t.Fatal(err)
	}
	if st.Phase != PhaseDone {
		t.Fatalf("phase %s after Wait", st.Phase)
	}
}

// ckptKiller wraps a Backend and cancels a context once a given number
// of checkpoints have been durably acknowledged — a deterministic
// mid-campaign kill.
type ckptKiller struct {
	Backend
	remaining atomic.Int64
	kill      context.CancelFunc
}

func (k *ckptKiller) Heartbeat(ctx context.Context, ls *Lease, through int, acc []byte) error {
	err := k.Backend.Heartbeat(ctx, ls, through, acc)
	if err == nil && len(acc) > 0 && k.remaining.Add(-1) == 0 {
		k.kill()
	}
	return err
}

// TestKillAndResumeBitIdentical is the fabric's core integration test:
// a million-trial campaign is killed after a handful of durable
// checkpoints, the store is reopened by a fresh coordinator, and the
// resumed run must finalize bit-identically to an uninterrupted
// single-node run — at several worker counts.
func TestKillAndResumeBitIdentical(t *testing.T) {
	spec := synthSpec(1_000_000, 0xfab, 4096, 16384)
	want := synthBaseline(t, spec)
	for _, workers := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			dir := t.TempDir()
			store, err := OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			c1 := NewCoordinator(Config{Store: store, Compile: synthCompile})
			ctx := context.Background()
			if err := c1.Submit(ctx, "big", spec, 8); err != nil {
				t.Fatal(err)
			}

			// Phase 1: run workers through the killer backend; the whole
			// process "dies" (worker ctx cancelled) after 3 checkpoints.
			wctx, kill := context.WithCancel(ctx)
			killer := &ckptKiller{Backend: c1, kill: kill}
			killer.remaining.Store(3)
			wg := runWorkers(wctx, t, killer, workers)
			wg.Wait()
			kill()
			st, err := c1.Status("big")
			if err != nil {
				t.Fatal(err)
			}
			if st.Phase != PhaseRunning {
				t.Fatalf("job reached phase %s before the kill", st.Phase)
			}
			progressed := 0
			for _, sh := range st.Shards {
				if sh.Through > sh.Span.Lo {
					progressed++
				}
			}
			if progressed == 0 {
				t.Fatal("kill landed before any durable checkpoint")
			}
			if err := c1.Close(); err != nil {
				t.Fatal(err)
			}

			// Phase 2: a fresh coordinator process reopens the same store.
			store2, err := OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			c2 := NewCoordinator(Config{Store: store2, Compile: synthCompile})
			defer func() {
				if err := c2.Close(); err != nil {
					t.Error(err)
				}
			}()
			if err := c2.RecoverAll(ctx); err != nil {
				t.Fatal(err)
			}
			st2, err := c2.Status("big")
			if err != nil {
				t.Fatal(err)
			}
			resumed := 0
			for i, sh := range st2.Shards {
				if sh.Through != st.Shards[i].Through || sh.Done != st.Shards[i].Done {
					t.Fatalf("shard %d recovered at %d (done=%v), persisted %d (done=%v)",
						i, sh.Through, sh.Done, st.Shards[i].Through, st.Shards[i].Done)
				}
				if sh.Through > sh.Span.Lo && !sh.Done {
					resumed++
				}
			}
			if resumed == 0 && progressed > 0 {
				// All progressed shards completed pre-kill; resume still has
				// untouched shards to run, but log the weaker condition.
				t.Logf("every checkpointed shard had already completed before the kill")
			}

			wctx2, stop := context.WithCancel(ctx)
			defer stop()
			wg2 := runWorkers(wctx2, t, c2, workers)
			res, err := c2.Wait(ctx, "big")
			stop()
			wg2.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if got := payloadJSON(t, res); got != want {
				t.Fatalf("resumed payload %s, uninterrupted single-node %s", got, want)
			}
		})
	}
}

// TestRealYieldKillAndResume runs the same kill/resume shape through the
// real yield campaign (testbench.Sharder) and pins the resumed payload
// to the uninterrupted testbench.Run payload.
func TestRealYieldKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("real campaign: seconds of trial work")
	}
	spec := testbench.Spec{
		Campaign:   "yield",
		Seed:       11,
		Chunk:      64,
		Checkpoint: 64,
		Params:     map[string]any{"n": 384},
	}
	base, err := testbench.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	want := payloadJSON(t, base)

	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	c1 := NewCoordinator(Config{Store: store})
	ctx := context.Background()
	if err := c1.Submit(ctx, "yield", spec, 2); err != nil {
		t.Fatal(err)
	}
	wctx, kill := context.WithCancel(ctx)
	killer := &ckptKiller{Backend: c1, kill: kill}
	killer.remaining.Store(1)
	w := &Worker{Backend: killer, ID: "w0", Poll: time.Millisecond}
	if err := w.Run(wctx); err != nil {
		t.Fatal(err)
	}
	kill()
	st, err := c1.Status("yield")
	if err != nil {
		t.Fatal(err)
	}
	if st.Phase != PhaseRunning {
		t.Fatalf("job reached phase %s before the kill", st.Phase)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewCoordinator(Config{Store: store2})
	defer func() {
		if err := c2.Close(); err != nil {
			t.Error(err)
		}
	}()
	if err := c2.RecoverAll(ctx); err != nil {
		t.Fatal(err)
	}
	wctx2, stop := context.WithCancel(ctx)
	defer stop()
	w2 := &Worker{Backend: c2, ID: "w1", Poll: time.Millisecond}
	done := make(chan error, 1)
	go func() { done <- w2.Run(wctx2) }()
	res, err := c2.Wait(ctx, "yield")
	stop()
	if werr := <-done; werr != nil {
		t.Fatal(werr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got := payloadJSON(t, res); got != want {
		t.Fatalf("resumed yield payload %s, want %s", got, want)
	}
}

// TestLeaseExpiryRequeues drives the Backend surface directly with an
// injected clock: an expired lease's shard is re-issued resuming from
// its last persisted checkpoint, and the stale token is refused.
func TestLeaseExpiryRequeues(t *testing.T) {
	clock := time.Unix(1000, 0)
	var mu sync.Mutex
	now := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return clock
	}
	advance := func(d time.Duration) {
		mu.Lock()
		clock = clock.Add(d)
		mu.Unlock()
	}
	c := newTestCoordinator(t, func(cfg *Config) {
		cfg.Now = now
		cfg.LeaseTTL = 10 * time.Second
	})
	ctx := context.Background()
	spec := synthSpec(1000, 1, 100, 100)
	if err := c.Submit(ctx, "job", spec, 1); err != nil {
		t.Fatal(err)
	}
	ls1, ok, err := c.Lease(ctx, "w1")
	if err != nil || !ok {
		t.Fatalf("first lease: ok=%v err=%v", ok, err)
	}
	// The shard is held: nobody else can lease it.
	if _, ok, err := c.Lease(ctx, "w2"); err != nil || ok {
		t.Fatalf("held shard re-leased: ok=%v err=%v", ok, err)
	}
	// w1 checkpoints partway, then goes silent.
	if err := c.Heartbeat(ctx, ls1, 300, []byte("blob-300........")); err != nil {
		t.Fatal(err)
	}
	advance(11 * time.Second)
	ls2, ok, err := c.Lease(ctx, "w2")
	if err != nil || !ok {
		t.Fatalf("expired shard not re-issued: ok=%v err=%v", ok, err)
	}
	if ls2.Shard != ls1.Shard || ls2.Through != 300 || string(ls2.Acc) != "blob-300........" {
		t.Fatalf("requeued lease %+v does not resume from the checkpoint", ls2)
	}
	if ls2.Token == ls1.Token {
		t.Fatal("requeued lease reuses the stale token")
	}
	// The stale holder's messages are refused with the stop signal.
	if err := c.Heartbeat(ctx, ls1, 400, []byte("late")); !errors.Is(err, ErrUnknownLease) {
		t.Fatalf("stale heartbeat: %v", err)
	}
	if err := c.Report(ctx, ls1, []byte("late")); !errors.Is(err, ErrUnknownLease) {
		t.Fatalf("stale report: %v", err)
	}
	// The new holder works fine.
	if err := c.Heartbeat(ctx, ls2, 500, []byte("blob-500........")); err != nil {
		t.Fatal(err)
	}
}

// TestCancelRevokesLeases pins the cancellation flow: Cancel moves the
// job terminal, in-flight heartbeats come back ErrLeaseRevoked (which a
// Worker turns into span-context cancellation), and Wait reports it.
func TestCancelRevokesLeases(t *testing.T) {
	c := newTestCoordinator(t)
	ctx := context.Background()
	if err := c.Submit(ctx, "job", synthSpec(1000, 2, 100, 100), 2); err != nil {
		t.Fatal(err)
	}
	ls, ok, err := c.Lease(ctx, "w1")
	if err != nil || !ok {
		t.Fatalf("lease: ok=%v err=%v", ok, err)
	}
	if err := c.Cancel("job"); err != nil {
		t.Fatal(err)
	}
	if err := c.Heartbeat(ctx, ls, 0, nil); !errors.Is(err, ErrLeaseRevoked) {
		t.Fatalf("heartbeat after cancel: %v", err)
	}
	if err := c.Report(ctx, ls, []byte("acc.............")); !errors.Is(err, ErrLeaseRevoked) {
		t.Fatalf("report after cancel: %v", err)
	}
	if _, ok, err := c.Lease(ctx, "w2"); err != nil || ok {
		t.Fatalf("cancelled job still leasing: ok=%v err=%v", ok, err)
	}
	if _, err := c.Wait(ctx, "job"); err == nil || !strings.Contains(err.Error(), "cancelled") {
		t.Fatalf("Wait after cancel: %v", err)
	}
	if err := c.Cancel("job"); !errors.Is(err, ErrJobDone) {
		t.Fatalf("double cancel: %v", err)
	}
	// The cancellation is durable: a fresh coordinator sees it.
	c2 := NewCoordinator(Config{Store: storeOf(c), Compile: synthCompile})
	if err := c2.Resume(ctx, "job"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := c2.Close(); err != nil {
			t.Error(err)
		}
	}()
	if _, err := c2.Wait(ctx, "job"); err == nil || !strings.Contains(err.Error(), "cancelled") {
		t.Fatalf("Wait after recover: %v", err)
	}
}

// storeOf reaches the coordinator's store for reopen-style tests.
func storeOf(c *Coordinator) *Store { return c.store }

// TestWorkerAbandonsCancelledSpan runs a real Worker against a job that
// is cancelled mid-span and checks the worker notices through its
// heartbeat and stops without reporting.
func TestWorkerAbandonsCancelledSpan(t *testing.T) {
	c := newTestCoordinator(t)
	ctx := context.Background()
	// Tiny checkpoint cadence: the worker heartbeats on every chunk.
	if err := c.Submit(ctx, "job", synthSpec(2_000_000, 3, 256, 256), 1); err != nil {
		t.Fatal(err)
	}
	// Cancel the job after the first durable checkpoint arrives.
	cancelled := make(chan struct{})
	var once sync.Once
	b := &hookBackend{Backend: c, onCheckpoint: func() {
		once.Do(func() {
			if err := c.Cancel("job"); err != nil {
				t.Errorf("cancel: %v", err)
			}
			close(cancelled)
		})
	}}
	w := &Worker{Backend: b, ID: "w0", Compile: synthCompile, Poll: time.Millisecond}
	worked, err := w.RunOne(ctx)
	if err != nil {
		t.Fatalf("worker surfaced revocation as an error: %v", err)
	}
	if !worked {
		t.Fatal("worker found nothing to lease")
	}
	<-cancelled
	st, err := c.Status("job")
	if err != nil {
		t.Fatal(err)
	}
	if st.Phase != PhaseCancelled {
		t.Fatalf("phase %s after cancel", st.Phase)
	}
	for i, sh := range st.Shards {
		if sh.Done {
			t.Fatalf("shard %d reported done on a cancelled job", i)
		}
	}
}

type hookBackend struct {
	Backend
	onCheckpoint func()
}

func (h *hookBackend) Heartbeat(ctx context.Context, ls *Lease, through int, acc []byte) error {
	err := h.Backend.Heartbeat(ctx, ls, through, acc)
	if err == nil && len(acc) > 0 && h.onCheckpoint != nil {
		h.onCheckpoint()
	}
	return err
}

// TestShardFailureFailsJob pins the deterministic-failure path: one
// erroring trial fails the whole job, and Wait surfaces the message.
func TestShardFailureFailsJob(t *testing.T) {
	c := newTestCoordinator(t)
	ctx := context.Background()
	spec := synthSpec(1000, 4, 100, 100)
	spec.Params.(map[string]any)["fail_at"] = float64(650)
	if err := c.Submit(ctx, "job", spec, 2); err != nil {
		t.Fatal(err)
	}
	wctx, stop := context.WithCancel(ctx)
	defer stop()
	wg := runWorkers(wctx, t, c, 2)
	_, err := c.Wait(ctx, "job")
	stop()
	wg.Wait()
	if err == nil || !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("Wait after shard failure: %v", err)
	}
	st, statusErr := c.Status("job")
	if statusErr != nil {
		t.Fatal(statusErr)
	}
	if st.Phase != PhaseFailed || !strings.Contains(st.Failure, "injected failure") {
		t.Fatalf("durable phase %s failure %q", st.Phase, st.Failure)
	}
}

// TestResumeRejectsMismatchedSpec guards the recompile cross-check: a
// stored job whose spec now resolves to a different trial count must
// not silently resume.
func TestResumeRejectsMismatchedSpec(t *testing.T) {
	c := newTestCoordinator(t)
	ctx := context.Background()
	if err := c.Submit(ctx, "job", synthSpec(1000, 4, 100, 100), 2); err != nil {
		t.Fatal(err)
	}
	shrunk := func(_ context.Context, spec testbench.Spec) (*testbench.ShardRun, error) {
		spec.Params = map[string]any{"n": float64(500)}
		return synthCompile(ctx, spec)
	}
	c2 := NewCoordinator(Config{Store: storeOf(c), Compile: shrunk})
	err := c2.Resume(ctx, "job")
	if err == nil || !strings.Contains(err.Error(), "trials") {
		t.Fatalf("mismatched resume: %v", err)
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
}
