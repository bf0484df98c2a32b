package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/testbench"
)

// fabricSpec is job i of fabric-sharded: a yield campaign whose decision
// threshold is calibrated at the spec corners on the coordinator and on
// every worker, checkpointing every chunk. Each fabric worker runs one
// campaign worker, so two workers keep two cores busy.
func fabricSpec(o options, i int) (testbench.Spec, testbench.YieldParams, int) {
	n, shards := 128, 4
	if o.tiny {
		n, shards = 32, 2
	}
	p := testbench.YieldParams{N: n, ComponentSigma: 0.02, Tol: 0.05}
	return testbench.Spec{Campaign: "yield", Seed: opHash(o.seed, i) % 1_000_000, Workers: 1,
		Chunk: 8, Checkpoint: 8, Params: p}, p, shards
}

// fabricProbe is the traced run's timing decorator around the workers'
// fabric.Backend and their spec compilation.
type fabricProbe struct {
	mu          sync.Mutex
	calls       map[string][]time.Duration
	checkpoints int
	ckptBytes   int
	executed    int // trials the workers started running
	reported    int // trials covered by delivered reports
}

func (p *fabricProbe) add(name string, d time.Duration) {
	p.mu.Lock()
	p.calls[name] = append(p.calls[name], d)
	p.mu.Unlock()
}

// meanMS is the mean duration of the named call in milliseconds.
func (p *fabricProbe) meanMS(name string) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return mean(seconds(p.calls[name])) * 1e3
}

// timedBackend times every call a worker makes to the coordinator.
type timedBackend struct {
	fabric.Backend
	p *fabricProbe
}

func (b timedBackend) Lease(ctx context.Context, workerID string) (*fabric.Lease, bool, error) {
	t := time.Now()
	ls, ok, err := b.Backend.Lease(ctx, workerID)
	if ok {
		b.p.add("lease", time.Since(t))
	} else {
		b.p.add("lease_idle", time.Since(t))
	}
	return ls, ok, err
}

func (b timedBackend) Heartbeat(ctx context.Context, ls *fabric.Lease, through int, acc []byte) error {
	t := time.Now()
	err := b.Backend.Heartbeat(ctx, ls, through, acc)
	b.p.add("heartbeat", time.Since(t))
	if len(acc) > 0 {
		b.p.mu.Lock()
		b.p.checkpoints++
		b.p.ckptBytes += len(acc)
		b.p.mu.Unlock()
	}
	return err
}

func (b timedBackend) Report(ctx context.Context, ls *fabric.Lease, acc []byte) error {
	t := time.Now()
	err := b.Backend.Report(ctx, ls, acc)
	b.p.add("report", time.Since(t))
	if err == nil {
		b.p.mu.Lock()
		b.p.reported += ls.Span.Hi - ls.Through
		b.p.mu.Unlock()
	}
	return err
}

// compile is the workers' timed fabric.CompileFunc; the compiled run
// counts the trials each span starts.
func (p *fabricProbe) compile(ctx context.Context, spec testbench.Spec) (*testbench.ShardRun, error) {
	t := time.Now()
	run, err := testbench.Sharder(ctx, spec)
	p.add("compile", time.Since(t))
	if err != nil {
		return nil, err
	}
	counted := *run
	counted.Run = func(ctx context.Context, span campaign.Span, init []byte, sink testbench.CheckpointSink) ([]byte, error) {
		p.mu.Lock()
		p.executed += span.Len()
		p.mu.Unlock()
		return run.Run(ctx, span, init, sink)
	}
	return &counted, nil
}

// fabricStack is a coordinator opened as `mcserved -store` opens it — an
// on-disk store, metrics in the serve registry, recovery, both route
// sets on one listener — plus two in-process workers speaking HTTP.
type fabricStack struct {
	dir   string
	srv   *serve.Server
	coord *fabric.Coordinator
	base  string
	stop  func()
	halt  context.CancelFunc
	wg    sync.WaitGroup
	wc    *http.Client

	mu   sync.Mutex
	werr error // first worker failure
}

func bootFabric(ctx context.Context, probe *fabricProbe) (*fabricStack, error) {
	dir, err := os.MkdirTemp("", "mcbench-fabric-*")
	if err != nil {
		return nil, err
	}
	fs := &fabricStack{dir: dir, srv: serve.New(ctx)}
	store, err := fabric.OpenStore(dir)
	if err != nil {
		fs.srv.Close()
		return nil, err
	}
	fs.coord = fabric.NewCoordinator(fabric.Config{Store: store, Metrics: fabric.NewMetrics(fs.srv.Metrics())})
	if err := fs.coord.RecoverAll(ctx); err != nil {
		return nil, fs.abort(err)
	}
	mux := http.NewServeMux()
	mux.Handle("/", fs.srv.Handler())
	fh := serve.NewFabric(fs.coord).Handler()
	mux.Handle("/v1/fabric/", fh)
	mux.Handle("/v1/shards/", fh)
	if fs.base, fs.stop, err = listen(mux); err != nil {
		return nil, fs.abort(err)
	}
	wctx, halt := context.WithCancel(ctx)
	fs.halt = halt
	fs.wc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	for i := 0; i < 2; i++ {
		w := &fabric.Worker{Backend: &serve.HTTPBackend{Base: fs.base, Client: fs.wc}, ID: fmt.Sprintf("w%d", i), Poll: pollEvery}
		if probe != nil {
			w.Backend = timedBackend{Backend: w.Backend, p: probe}
			w.Compile = probe.compile
		}
		fs.wg.Add(1)
		go func() {
			defer fs.wg.Done()
			if err := w.Run(wctx); err != nil {
				fs.mu.Lock()
				if fs.werr == nil {
					fs.werr = fmt.Errorf("fabric worker %s: %w", w.ID, err)
				}
				fs.mu.Unlock()
			}
		}()
	}
	return fs, nil
}

// workerErr is the first error a worker stopped on.
func (fs *fabricStack) workerErr() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.werr
}

// abort tears down a partly booted stack and returns err.
func (fs *fabricStack) abort(err error) error {
	_ = fs.coord.Close() // boot already failed with err
	fs.srv.Close()
	_ = os.RemoveAll(fs.dir) // best-effort removal of a throwaway store
	return err
}

func (fs *fabricStack) close() error {
	fs.halt()
	fs.wg.Wait()
	fs.stop()
	err := fs.coord.Close()
	fs.srv.Close()
	fs.wc.CloseIdleConnections()
	if rerr := os.RemoveAll(fs.dir); err == nil {
		err = rerr
	}
	return err
}

// fabricJob submits one durable sharded job, polls it to done and reads
// its result.
func (c *client) fabricJob(ctx context.Context, id string, shards int, r *jobRecord) {
	ctx, cancel := context.WithTimeout(ctx, jobTimeout)
	defer cancel()
	body, err := json.Marshal(serve.FabricSubmit{ID: id, Spec: r.spec, Shards: shards})
	if err != nil {
		r.err = err
		return
	}
	var st struct {
		Phase   fabric.Phase `json:"phase"`
		Failure string       `json:"failure"`
		Error   string       `json:"error"`
	}
	start := time.Now()
	code, rtt, err := c.do(ctx, http.MethodPost, "/v1/fabric/jobs", body, &st)
	if err == nil && code != http.StatusAccepted {
		err = fmt.Errorf("submit: HTTP %d: %s", code, st.Error)
	}
	r.submit = rtt
	for err == nil && st.Phase == fabric.PhaseRunning {
		if err = sleepCtx(ctx, pollEvery); err != nil {
			break
		}
		code, rtt, err = c.do(ctx, http.MethodGet, "/v1/fabric/jobs/"+id, nil, &st)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("poll %s: HTTP %d: %s", id, code, st.Error)
		}
		r.polls++
		r.pollRTT += rtt
	}
	if err == nil && st.Phase != fabric.PhaseDone {
		err = fmt.Errorf("job %s ended %s: %s", id, st.Phase, st.Failure)
	}
	var res struct {
		Payload json.RawMessage `json:"payload"`
		Error   string          `json:"error"`
	}
	if err == nil {
		code, r.lastRTT, err = c.do(ctx, http.MethodGet, "/v1/fabric/jobs/"+id+"/result", nil, &res)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("result %s: HTTP %d: %s", id, code, res.Error)
		}
	}
	r.latency, r.done = time.Since(start), time.Now()
	if err == nil {
		r.payload, err = compactJSON(res.Payload)
	}
	r.err = err
}

// runFabric measures sequential durable sharded jobs.
func runFabric(ctx context.Context, o options) (*outcome, error) {
	out := newOutcome("fabric-sharded", o)
	// The live heap is read after the first minOps jobs, between jobs;
	// see runServeMixed.
	boots, minOps, maxOps := 9, 16, 100
	if o.tiny {
		boots, minOps, maxOps = 1, 2, 2
	}
	spec0, p0, shards := fabricSpec(o, 0)
	out.sizes = map[string]int{"dies": p0.N, "shards": shards, "chunk": spec0.Chunk, "checkpoint": spec0.Checkpoint,
		"fabric_workers": 2, "max_jobs": maxOps, "poll_ms": int(pollEvery / time.Millisecond)}
	var probe *fabricProbe
	if o.trace {
		probe = &fabricProbe{calls: map[string][]time.Duration{}}
	}

	var stack *fabricStack
	var setups []float64
	for b := 0; b < boots; b++ {
		t := time.Now()
		fs, err := bootFabric(ctx, probe)
		if err != nil {
			return nil, err
		}
		c := newClient(fs.base)
		w := warmupRecord()
		w.spec.Checkpoint = 8
		c.fabricJob(ctx, "warmup", 2, &w)
		c.close()
		if w.err != nil {
			_ = fs.close() // the warm-up failure is the error to report
			return nil, fmt.Errorf("warm-up job: %w", w.err)
		}
		setups = append(setups, time.Since(t).Seconds())
		if stack != nil {
			if err := stack.close(); err != nil {
				return nil, err
			}
		}
		stack = fs
	}
	out.e2e["setup_s"] = median(setups)
	if probe != nil {
		probe.mu.Lock()
		probe.calls = map[string][]time.Duration{}
		probe.checkpoints, probe.ckptBytes, probe.executed, probe.reported = 0, 0, 0, 0
		probe.mu.Unlock()
	}

	c := newClient(stack.base)
	var before, after metrics.JSONSnapshot
	var err error
	if o.trace {
		if before, err = c.scrape(ctx); err != nil {
			return nil, err
		}
	}
	recs := make([]jobRecord, maxOps)
	heapMB := 0.0
	runtime.GC()
	alloc0 := totalAlloc()
	start := time.Now()
	for i := 0; i < maxOps && (i < minOps || time.Since(start).Seconds() < o.seconds) && ctx.Err() == nil; i++ {
		if i == minOps {
			heapMB = liveHeapMB()
		}
		r := &recs[i]
		var p testbench.YieldParams
		r.spec, p, shards = fabricSpec(o, i)
		r.params = p
		r.input, err = json.Marshal(struct {
			Spec   testbench.Spec `json:"spec"`
			Shards int            `json:"shards"`
		}{r.spec, shards})
		if err != nil {
			return nil, err
		}
		r.ran = true
		c.fabricJob(ctx, fmt.Sprintf("job-%04d", i), shards, r)
	}
	alloc := totalAlloc() - alloc0
	if heapMB == 0 {
		heapMB = liveHeapMB()
	}
	if o.trace {
		if after, err = c.scrape(ctx); err != nil {
			return nil, err
		}
	}
	c.close()
	werr := stack.workerErr()
	if err := stack.close(); err != nil {
		return nil, err
	}

	// Verification, untimed: every job against a single-node run of its
	// spec, plus digests and invariants.
	warm, setup, err := freshSystems("analytic", 5)
	if err != nil {
		return nil, err
	}
	ok := make([]bool, len(recs))
	var runs, encodes, sizes []float64
	var specs []testbench.Spec
	for i := range recs {
		r := &recs[i]
		if !r.ran {
			continue
		}
		err := r.err
		if err == nil && werr != nil {
			err = werr
		}
		if err == nil {
			err = out.verifyRaw(o, r.input, "yield", r.params.(testbench.YieldParams).N, r.payload)
		}
		if err == nil {
			var d time.Duration
			var res *testbench.Result
			if d, res, err = crossCheck(ctx, warm, r.spec, r.payload); err == nil && o.trace {
				runs = append(runs, d.Seconds()*1e3)
				specs = append(specs, r.spec)
				t := time.Now()
				blob, merr := json.MarshalIndent(res, "", "  ")
				if merr != nil {
					return nil, merr
				}
				encodes = append(encodes, time.Since(t).Seconds()*1e6)
				sizes = append(sizes, float64(len(blob)))
			}
		}
		ok[i] = out.record(i, err)
	}
	out.latencyStats(recs, ok, start, alloc, heapMB)
	if !o.trace || !ok[0] {
		return out, nil
	}

	out.clientExtras("fabric", recs, ok)
	jobs := out.extra["jobs"]
	for _, name := range []string{"compile", "lease", "heartbeat", "report"} {
		out.extra["fabric."+name+"_ms"] = probe.meanMS(name)
	}
	probe.mu.Lock()
	out.extra["fabric.lease_idle_calls"] = float64(len(probe.calls["lease_idle"]))
	out.extra["fabric.checkpoints"] = float64(probe.checkpoints) / jobs
	out.extra["fabric.checkpoint_bytes"] = float64(probe.ckptBytes) / jobs
	out.extra["fabric.useful_frac"] = float64(probe.reported) / float64(probe.executed)
	probe.mu.Unlock()
	if sum, n := histDelta(before, after, "mcfabric_shard_merge_seconds", ""); n > 0 {
		out.extra["fabric.merge_ms"] = 1e3 * sum / float64(n)
	}
	out.extra["fabric.requeues"] = counterDelta(before, after, "mcfabric_leases_expired_total")

	out.setSetupLayers(setup)
	if out.layers["testbench.validate_us"], err = validateMicros(specs); err != nil {
		return nil, err
	}
	out.layers["testbench.run_ms"] = mean(runs)
	out.layers["testbench.encode_us"] = mean(encodes)
	out.layers["testbench.result_bytes"] = mean(sizes)

	// Layer replay of the first job: untraced single-node run at the
	// spec's own worker count, then the traced replay; the replay must
	// reproduce the fabric's payload. Both run at the calibrated
	// threshold, so neither pays the corner calibration.
	r := &recs[0]
	p := r.params.(testbench.YieldParams)
	dec, err := testbench.CalibrateMultiParam(warm, p.Tol)
	if err != nil {
		return nil, err
	}
	pinned := r.spec
	pinned.Params = testbench.YieldParams{N: p.N, ComponentSigma: p.ComponentSigma, Tol: p.Tol, Threshold: &dec.Threshold}
	t := time.Now()
	if _, err := testbench.Run(ctx, pinned, testbench.WithSystem(warm)); err != nil {
		return nil, err
	}
	untraced := time.Since(t)
	tr, rc := newTracer(), &replayCounts{}
	t = time.Now()
	y, err := replayYield(ctx, tr, rc, warm, r.spec, p, dec.Threshold)
	traced := time.Since(t)
	out.record(0, samePayload(y, err, r.payload))
	out.setReplayLayers(tr, rc, r.spec.Workers, 1)
	out.layers["trace_overhead_frac"] = 1 - untraced.Seconds()/traced.Seconds()
	return out, out.writeSpans(o, tr)
}
