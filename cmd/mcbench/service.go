package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/testbench"
)

// pollEvery is how often the clients poll a job's status.
const pollEvery = 5 * time.Millisecond

// jobTimeout bounds one job from submit to result, so a stalled service
// fails the operation instead of the run.
const jobTimeout = 60 * time.Second

// client is the benchmark's HTTP client of the service under test.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and decodes a JSON response into out (nil skips
// decoding). It returns the status code and the round-trip time,
// response body included.
func (c *client) do(ctx context.Context, method, path string, body []byte, out any) (int, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	t := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	rtt := time.Since(t)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return resp.StatusCode, rtt, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if out != nil && len(data) > 0 {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, rtt, fmt.Errorf("%s %s: decode: %w", method, path, err)
		}
	}
	return resp.StatusCode, rtt, nil
}

// scrape reads the service's JSON metrics snapshot.
func (c *client) scrape(ctx context.Context) (metrics.JSONSnapshot, error) {
	var snap metrics.JSONSnapshot
	code, _, err := c.do(ctx, http.MethodGet, "/metrics?format=json", nil, &snap)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET /metrics: HTTP %d", code)
	}
	return snap, err
}

// histDelta returns the change in a histogram child's sum and count
// between two snapshots (label "" for an unlabelled family).
func histDelta(before, after metrics.JSONSnapshot, family, label string) (sum float64, count uint64) {
	read := func(s metrics.JSONSnapshot) (float64, uint64) {
		f, ok := s.Find(family)
		if !ok {
			return 0, 0
		}
		for _, m := range f.Metrics {
			if m.LabelValue == label && m.Sum != nil && m.Count != nil {
				return *m.Sum, *m.Count
			}
		}
		return 0, 0
	}
	s0, c0 := read(before)
	s1, c1 := read(after)
	return s1 - s0, c1 - c0
}

// counterDelta returns the change in a counter family's total.
func counterDelta(before, after metrics.JSONSnapshot, family string) float64 {
	total := func(s metrics.JSONSnapshot) float64 {
		f, ok := s.Find(family)
		if !ok {
			return 0
		}
		return f.Total()
	}
	return total(after) - total(before)
}

// sleepCtx sleeps d or until ctx ends.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// jobRecord is one service job as the client saw it.
type jobRecord struct {
	ran     bool
	spec    testbench.Spec
	params  any
	input   []byte // the operation's input bytes (its key)
	err     error
	latency time.Duration // submit to result in hand
	done    time.Time
	submit  time.Duration // POST round trip
	polls   int
	pollRTT time.Duration // summed over polls
	lastRTT time.Duration // the request that returned the result
	server  time.Duration // the service's own created-to-finished time
	payload []byte        // canonical payload
}

// listen starts an HTTP server for h on an ephemeral loopback port.
func listen(h http.Handler) (base string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	return "http://" + ln.Addr().String(), func() {
		_ = hs.Close() // teardown; in-flight requests have all completed
		<-done
	}, nil
}

// closedLoop runs jobs 0, 1, … from the given number of clients, each
// sending its next job only after the previous one completed, until at
// least minOps jobs ran and the window closed (or maxOps ran). Once the
// first quiesceAt jobs (quiesceAt <= minOps) have all completed, and
// before any later job starts, quiesce runs exactly once.
func closedLoop(ctx context.Context, clients int, window time.Duration, minOps, maxOps, quiesceAt int, quiesce func(), run func(i int)) {
	var next atomic.Int64
	var first sync.WaitGroup
	first.Add(quiesceAt)
	var once sync.Once
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= maxOps || (i >= minOps && time.Since(start) >= window) {
					return
				}
				if i >= quiesceAt {
					first.Wait()
					once.Do(quiesce)
				}
				run(i)
				if i < quiesceAt {
					first.Done()
				}
			}
		}()
	}
	wg.Wait()
	once.Do(quiesce)
}

// latencyStats fills the end-to-end metrics shared by the service
// workloads from the verified jobs, the bytes allocated over the window
// and the live heap read at the quiescent point.
func (out *outcome) latencyStats(recs []jobRecord, ok []bool, start time.Time, alloc uint64, heapMB float64) {
	var lat []float64
	trials, jobs := 0, 0
	last := start
	for i := range recs {
		if !ok[i] {
			continue
		}
		r := &recs[i]
		lat = append(lat, r.latency.Seconds())
		trials += trialsOf(r.params)
		jobs++
		if r.done.After(last) {
			last = r.done
		}
	}
	if jobs == 0 {
		return
	}
	wall := last.Sub(start).Seconds()
	out.e2e["trials_per_s"] = float64(trials) / wall
	out.e2e["jobs_per_s"] = float64(jobs) / wall
	out.e2e["job_p50_s"] = median(lat)
	out.e2e["job_p90_s"] = percentile(lat, 0.9)
	out.e2e["alloc_b_per_op"] = float64(alloc) / float64(jobs)
	out.e2e["live_heap_mb"] = heapMB
	out.extra["jobs"] = float64(jobs)
	out.extra["job_p90_samples_beyond"] = float64(jobs - int(0.9*float64(jobs)) - 1)
}

// clientExtras summarizes the client-side round trips of the jobs.
func (out *outcome) clientExtras(prefix string, recs []jobRecord, ok []bool) {
	var sub, pl, ls, polls []float64
	for i := range recs {
		if !ok[i] {
			continue
		}
		r := &recs[i]
		sub = append(sub, r.submit.Seconds()*1e3)
		ls = append(ls, r.lastRTT.Seconds()*1e3)
		polls = append(polls, float64(r.polls))
		if r.polls > 0 {
			pl = append(pl, r.pollRTT.Seconds()*1e3/float64(r.polls))
		}
	}
	out.extra[prefix+".submit_ms"] = median(sub)
	out.extra[prefix+".poll_ms"] = median(pl)
	out.extra[prefix+".result_ms"] = median(ls)
	out.extra[prefix+".polls_per_job"] = mean(polls)
}

// crossCheck runs a job's spec untimed as a single-node in-process run on
// a warm system and compares payloads bit for bit.
func crossCheck(ctx context.Context, warm *core.System, spec testbench.Spec, payload []byte) (time.Duration, *testbench.Result, error) {
	t := time.Now()
	res, err := testbench.Run(ctx, spec, testbench.WithSystem(warm), testbench.WithWorkers(2))
	d := time.Since(t)
	if err != nil {
		return d, nil, fmt.Errorf("single-node rerun: %w", err)
	}
	want, err := json.Marshal(res.Payload)
	if err != nil {
		return d, nil, err
	}
	if !bytes.Equal(want, payload) {
		return d, nil, errors.New("service payload differs from the single-node run of the same spec")
	}
	return d, res, nil
}

// serveSpec is job i of the serve-mixed sequence: the rotation yield,
// yield, fig4mc, yield, noise, each knob drawn from the job's hash. Every
// job asks for one campaign worker: two clients then keep two cores busy.
func serveSpec(o options, i int) (testbench.Spec, any) {
	h := opHash(o.seed, i)
	seed, knob := h%1_000_000, splitmix64(h)
	switch i % 5 {
	case 2:
		p := testbench.Fig4MCParams{Monitor: 2, Dies: 16 + int(knob%5), Cols: 11}
		return testbench.Spec{Campaign: "fig4mc", Seed: seed, Workers: 1, Params: p}, p
	case 4:
		p := testbench.NoiseParams{Sigma: 0.005, Devs: []float64{0.005, 0.01, 0.02, 0.05}, NullTrials: 20, Trials: 10}
		return testbench.Spec{Campaign: "noise", Seed: seed, Workers: 1, Params: p}, p
	}
	th := yieldThreshold
	p := testbench.YieldParams{N: 16 + 8*int(knob%3), ComponentSigma: 0.02, Tol: 0.05, Threshold: &th}
	return testbench.Spec{Campaign: "yield", Seed: seed, Workers: 1, Chunk: 8, Params: p}, p
}

// serveJob submits one spec to /v1/campaigns and polls the job to its
// result.
func (c *client) serveJob(ctx context.Context, r *jobRecord) {
	ctx, cancel := context.WithTimeout(ctx, jobTimeout)
	defer cancel()
	var st struct {
		ID     string `json:"id"`
		State  string `json:"state"`
		Error  string `json:"error"`
		Result *struct {
			Payload json.RawMessage `json:"payload"`
		} `json:"result"`
		Created  time.Time  `json:"created"`
		Finished *time.Time `json:"finished"`
	}
	start := time.Now()
	code, rtt, err := c.do(ctx, http.MethodPost, "/v1/campaigns", r.input, &st)
	if err == nil && code != http.StatusAccepted {
		err = fmt.Errorf("submit: HTTP %d: %s", code, st.Error)
	}
	r.submit, r.lastRTT = rtt, rtt
	for err == nil && st.State == serve.StateRunning {
		if err = sleepCtx(ctx, pollEvery); err != nil {
			break
		}
		code, rtt, err = c.do(ctx, http.MethodGet, "/v1/jobs/"+st.ID, nil, &st)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("poll %s: HTTP %d: %s", st.ID, code, st.Error)
		}
		r.polls++
		r.pollRTT += rtt
		r.lastRTT = rtt
	}
	r.latency, r.done = time.Since(start), time.Now()
	switch {
	case err != nil:
	case st.State != serve.StateDone:
		err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	case st.Result == nil || st.Finished == nil:
		err = fmt.Errorf("job %s done without a result", st.ID)
	default:
		r.server = st.Finished.Sub(st.Created)
		r.payload, err = compactJSON(st.Result.Payload)
	}
	r.err = err
}

// serveStack is one in-process mcserved: the job engine behind an HTTP
// listener.
type serveStack struct {
	srv  *serve.Server
	base string
	stop func()
}

func bootServe(ctx context.Context) (*serveStack, error) {
	srv := serve.New(ctx)
	base, stop, err := listen(srv.Handler())
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &serveStack{srv: srv, base: base, stop: stop}, nil
}

func (s *serveStack) close() {
	s.stop()
	s.srv.Close()
}

// warmupRecord is the fixed first job every boot runs; set-up ends when
// its result is in hand, and it is not among the measured jobs.
func warmupRecord() jobRecord {
	th := yieldThreshold
	spec := testbench.Spec{Campaign: "yield", Seed: 1, Workers: 1, Chunk: 8,
		Params: testbench.YieldParams{N: 16, ComponentSigma: 0.02, Tol: 0.05, Threshold: &th}}
	return jobRecord{spec: spec, input: specJSON(spec)}
}

// runServeMixed measures the in-process job service under two
// closed-loop clients.
func runServeMixed(ctx context.Context, o options) (*outcome, error) {
	out := newOutcome("serve-mixed", o)
	// The live heap is read once the first minOps jobs completed, with
	// none in flight, so it measures what the service retains after a
	// fixed number of jobs rather than after however many fit the window.
	boots, minOps, maxOps, sample, stride := 9, 100, 400, 20, 3
	if o.tiny {
		boots, minOps, maxOps, sample, stride = 1, 5, 5, 5, 1
	}
	out.sizes = map[string]int{"clients": 2, "max_jobs": maxOps, "poll_ms": int(pollEvery / time.Millisecond)}

	var stack *serveStack
	var setups []float64
	for b := 0; b < boots; b++ {
		t := time.Now()
		st, err := bootServe(ctx)
		if err != nil {
			return nil, err
		}
		c := newClient(st.base)
		w := warmupRecord()
		c.serveJob(ctx, &w)
		c.close()
		if w.err != nil {
			st.close()
			return nil, fmt.Errorf("warm-up job: %w", w.err)
		}
		setups = append(setups, time.Since(t).Seconds())
		if stack != nil {
			stack.close()
		}
		stack = st
	}
	defer stack.close()
	out.e2e["setup_s"] = median(setups)

	c := newClient(stack.base)
	defer c.close()
	var before, after metrics.JSONSnapshot
	var err error
	if o.trace {
		if before, err = c.scrape(ctx); err != nil {
			return nil, err
		}
	}
	recs := make([]jobRecord, maxOps)
	var heapMB float64
	runtime.GC()
	alloc0 := totalAlloc()
	start := time.Now()
	closedLoop(ctx, 2, time.Duration(o.seconds*float64(time.Second)), minOps, maxOps, minOps, func() { heapMB = liveHeapMB() }, func(i int) {
		r := &recs[i]
		r.spec, r.params = serveSpec(o, i)
		r.input = specJSON(r.spec)
		r.ran = true
		c.serveJob(ctx, r)
	})
	alloc := totalAlloc() - alloc0
	if o.trace {
		if after, err = c.scrape(ctx); err != nil {
			return nil, err
		}
	}

	// Verification, untimed: digests and invariants for every job, and a
	// single-node rerun of every stride-th job.
	warm, setup, err := freshSystems("analytic", 5)
	if err != nil {
		return nil, err
	}
	ok := make([]bool, len(recs))
	for i := range recs {
		r := &recs[i]
		if !r.ran {
			continue
		}
		err := r.err
		if err == nil {
			err = out.verifyRaw(o, r.input, r.spec.Campaign, trialsOf(r.params), r.payload)
		}
		if err == nil && i%stride == 0 {
			_, _, err = crossCheck(ctx, warm, r.spec, r.payload)
		}
		ok[i] = out.record(i, err)
	}
	out.latencyStats(recs, ok, start, alloc, heapMB)
	if !o.trace || out.e2e["jobs_per_s"] == 0 {
		return out, nil
	}
	out.setSetupLayers(setup)
	return out, out.serveLayers(ctx, o, c, warm, recs, ok, sample, before, after)
}

// serveLayers is the traced part of serve-mixed: client round trips,
// per-route server time from /metrics deltas, a decomposition of the
// first jobs, and a layer replay of their yield jobs. The decomposition
// times each sampled spec in process — validate, set-up, run on a warm
// System, encode — and then submits it alone to the same server, so the
// parts and the latency they must add up to are measured back to back.
func (out *outcome) serveLayers(ctx context.Context, o options, c *client, warm *core.System, recs []jobRecord, ok []bool, sample int, before, after metrics.JSONSnapshot) error {
	out.clientExtras("serve", recs, ok)
	for _, rt := range [...]struct{ route, name string }{{"/v1/campaigns", "campaigns"}, {"/v1/jobs/{id}", "job"}} {
		sum, n := histDelta(before, after, "mcserved_http_request_seconds", rt.route)
		if n > 0 {
			out.extra["serve.route_ms."+rt.name] = 1e3 * sum / float64(n)
		}
	}
	// The HTTP share of a job is what the client waited beyond the
	// service's own created-to-finished time: submit, polling lag and
	// the result transfer.
	var server, outside []float64
	for i := range recs {
		if ok[i] {
			server = append(server, recs[i].server.Seconds()*1e3)
			outside = append(outside, (recs[i].latency-recs[i].server).Seconds()*1e3)
		}
	}
	out.extra["serve.server_ms"] = median(server)
	out.extra["serve.http_ms"] = median(outside)

	var (
		specs                []testbench.Spec
		runs, encodes, sizes []float64
		inproc, solo         []float64
		partsMS, latencyMS   float64
		tr, rc               = newTracer(), &replayCounts{}
		untraced, traced     time.Duration
		replays              int
	)
	for i := 0; i < len(recs) && len(specs) < sample; i++ {
		if !ok[i] {
			continue
		}
		r := &recs[i]
		specs = append(specs, r.spec)
		t := time.Now()
		if err := testbench.Validate(r.spec); err != nil {
			return err
		}
		validate := time.Since(t).Seconds() * 1e3
		setupMS := 0.0
		if r.spec.Campaign != "fig4mc" { // fig4mc builds its own bank, never a System
			t0 := time.Now()
			sys, err := core.SystemForBackend("analytic")
			if err != nil {
				return err
			}
			if _, err := sys.GoldenSignature(); err != nil {
				return err
			}
			setupMS = time.Since(t0).Seconds() * 1e3
		}
		t = time.Now()
		res, err := testbench.Run(ctx, r.spec, testbench.WithSystem(warm))
		d := time.Since(t)
		if err != nil {
			return err
		}
		runMS := d.Seconds() * 1e3
		runs = append(runs, runMS)
		t = time.Now()
		blob, err := json.MarshalIndent(serve.JobStatus{ID: "job", State: serve.StateDone, Spec: r.spec, Result: res}, "", "  ")
		if err != nil {
			return err
		}
		encodeMS := time.Since(t).Seconds() * 1e3
		encodes = append(encodes, encodeMS*1e3)
		sizes = append(sizes, float64(len(blob)))
		inproc = append(inproc, validate+setupMS+runMS+encodeMS)
		alone := jobRecord{spec: r.spec, input: r.input}
		c.serveJob(ctx, &alone)
		if alone.err == nil && !bytes.Equal(alone.payload, r.payload) {
			alone.err = errors.New("resubmitted job's payload differs from its first run")
		}
		if !out.record(i, alone.err) {
			continue
		}
		solo = append(solo, alone.latency.Seconds()*1e3)
		partsMS += validate + setupMS + runMS + encodeMS + (alone.latency-alone.server).Seconds()*1e3
		latencyMS += alone.latency.Seconds() * 1e3

		if r.spec.Campaign == "yield" {
			p := r.params.(testbench.YieldParams)
			t = time.Now()
			y, err := replayYield(ctx, tr, rc, warm, r.spec, p, *p.Threshold)
			traced += time.Since(t)
			untraced += d
			replays++
			out.record(i, samePayload(y, err, r.payload))
		}
	}
	// How well the in-process parts plus the measured HTTP share explain
	// the resubmitted jobs' latencies (1 = fully).
	out.extra["serve.decomp_frac"] = partsMS / latencyMS
	out.extra["serve.solo_p50_ms"] = median(solo)
	out.extra["serve.http_overhead_ms"] = 1e3*out.e2e["job_p50_s"] - median(inproc)
	var err error
	if out.layers["testbench.validate_us"], err = validateMicros(specs); err != nil {
		return err
	}
	out.layers["testbench.run_ms"] = mean(runs)
	out.layers["testbench.encode_us"] = mean(encodes)
	out.layers["testbench.result_bytes"] = mean(sizes)
	out.setReplayLayers(tr, rc, 1, replays)
	out.layers["trace_overhead_frac"] = 1 - untraced.Seconds()/traced.Seconds()
	return out.writeSpans(o, tr)
}
