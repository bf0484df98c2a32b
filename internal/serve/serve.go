package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/testbench"
)

// Job states.
const (
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// Progress is a job's completion counter within its current fan-out
// phase (multi-phase campaigns reset it per phase).
type Progress struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

// JobStatus is the wire form of one job.
type JobStatus struct {
	ID       string            `json:"id"`
	State    string            `json:"state"`
	Spec     testbench.Spec    `json:"spec"`
	Progress Progress          `json:"progress"`
	Error    string            `json:"error,omitempty"`
	Result   *testbench.Result `json:"result,omitempty"`
	Created  time.Time         `json:"created"`
	Finished *time.Time        `json:"finished,omitempty"`
}

// job is the server-side state of one campaign run.
type job struct {
	mu       sync.Mutex
	id       string
	seq      int
	spec     testbench.Spec
	state    string
	progress Progress
	err      string
	result   *testbench.Result
	created  time.Time
	finished *time.Time
	cancel   context.CancelFunc
	done     chan struct{} // closed on terminal state
	// trialsSeen is the last progress count fed to the cumulative trial
	// counter (see countTrials); guarded by mu like progress.
	trialsSeen int
}

// status snapshots the job under its lock.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID:       j.id,
		State:    j.state,
		Spec:     j.spec,
		Progress: j.progress,
		Error:    j.err,
		Result:   j.result,
		Created:  j.created,
		Finished: j.finished,
	}
}

// Server is the HTTP campaign service. Create with New, mount Handler,
// Close on shutdown (cancels every running job).
type Server struct {
	mu      sync.Mutex
	jobs    map[string]*job
	seq     int
	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup
	metrics *serverMetrics
}

// New returns a ready server; jobs inherit from ctx (nil = Background),
// so cancelling it — or calling Close — aborts every campaign in flight.
func New(ctx context.Context) *Server {
	if ctx == nil {
		ctx = context.Background() //mclint:ctxflow nil-ctx guard at construction; callers pass the process root ctx and Close cancels every job
	}
	base, stop := context.WithCancel(ctx)
	return &Server{
		jobs:    map[string]*job{},
		baseCtx: base,
		stop:    stop,
		metrics: newServerMetrics(metrics.NewRegistry()),
	}
}

// Metrics returns the server's metric registry — the one GET /metrics
// exposes. Co-resident subsystems (the fabric coordinator in mcserved)
// register their families here so one scrape covers the process.
func (s *Server) Metrics() *metrics.Registry { return s.metrics.reg }

// Close cancels all running jobs and waits for them to drain.
func (s *Server) Close() {
	s.stop()
	s.wg.Wait()
}

// Submit starts a campaign job for the spec and returns its status — the
// programmatic form of POST /v1/campaigns. The campaign is validated
// (name and params) before the job is created, so a bad spec never
// occupies a job slot.
func (s *Server) Submit(spec testbench.Spec) (JobStatus, error) {
	if err := testbench.Validate(spec); err != nil {
		return JobStatus{}, err
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	s.mu.Lock()
	s.seq++
	j := &job{
		id:      fmt.Sprintf("job-%d", s.seq),
		seq:     s.seq,
		spec:    spec,
		state:   StateRunning,
		created: time.Now(),
		cancel:  cancel,
		done:    make(chan struct{}),
	}
	s.jobs[j.id] = j
	s.mu.Unlock()
	s.metrics.jobsInFlight.Add(1)
	s.wg.Add(1)
	go s.run(ctx, cancel, j)
	return j.status(), nil
}

// run executes one job to a terminal state.
func (s *Server) run(ctx context.Context, cancel context.CancelFunc, j *job) {
	defer s.wg.Done()
	defer cancel()
	res, err := testbench.Run(ctx, j.spec,
		testbench.WithProgress(func(done, total int) {
			j.mu.Lock()
			j.progress = Progress{Done: done, Total: total}
			j.countTrials(s.metrics, done)
			j.mu.Unlock()
		}),
		testbench.WithMeter(newJobMeter(s.metrics)))
	now := time.Now()
	j.mu.Lock()
	j.finished = &now
	switch {
	case err == nil:
		j.state = StateDone
		j.result = res
	case errors.Is(err, context.Canceled):
		j.state = StateCancelled
		j.err = err.Error()
	default:
		j.state = StateFailed
		j.err = err.Error()
	}
	state := j.state
	j.mu.Unlock()
	s.metrics.jobsInFlight.Add(-1)
	s.metrics.jobsTotal.With(state).Inc()
	close(j.done)
}

// Cancel aborts a running job; cancelling a terminal job is a no-op.
func (s *Server) Cancel(id string) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, fmt.Errorf("serve: unknown job %q", id)
	}
	j.cancel()
	return j.status(), nil
}

// Job returns one job's status.
func (s *Server) Job(id string) (JobStatus, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, false
	}
	return j.status(), true
}

// Jobs lists every job, newest first.
func (s *Server) Jobs() []JobStatus {
	s.mu.Lock()
	js := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		js = append(js, j)
	}
	s.mu.Unlock()
	sort.Slice(js, func(a, b int) bool { return js[a].seq > js[b].seq })
	out := make([]JobStatus, len(js))
	for i, j := range js {
		out[i] = j.status()
	}
	return out
}

// Handler mounts the API, including GET /metrics, with every route
// counted and timed by the per-route request instruments.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/campaigns", s.handleCampaigns)
	mux.HandleFunc("/v1/jobs", s.handleJobs)
	mux.HandleFunc("/v1/jobs/", s.handleJob)
	mux.Handle("/metrics", metrics.Handler(s.metrics.reg, "docs/METRICS.md"))
	return s.metrics.instrument(mux)
}

// handleCampaigns serves the registry catalogue (GET) and accepts new
// specs (POST).
func (s *Server) handleCampaigns(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, testbench.List())
	case http.MethodPost:
		var spec testbench.Spec
		if !decodeBody(w, r, &spec, "spec") {
			return
		}
		st, err := s.Submit(spec)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		w.Header().Set("Location", "/v1/jobs/"+st.ID)
		writeJSON(w, http.StatusAccepted, st)
	default:
		w.Header().Set("Allow", "GET, POST")
		writeError(w, http.StatusMethodNotAllowed, errors.New("method not allowed"))
	}
}

// handleJobs lists all jobs.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", "GET")
		writeError(w, http.StatusMethodNotAllowed, errors.New("method not allowed"))
		return
	}
	writeJSON(w, http.StatusOK, s.Jobs())
}

// handleJob routes /v1/jobs/{id}[/cancel|/events].
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	id, action, _ := strings.Cut(rest, "/")
	st, ok := s.Job(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	switch {
	case action == "" && r.Method == http.MethodGet:
		writeJSON(w, http.StatusOK, st)
	case action == "" && r.Method == http.MethodDelete,
		action == "cancel" && r.Method == http.MethodPost:
		st, err := s.Cancel(id)
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	case action == "events" && r.Method == http.MethodGet:
		s.streamEvents(w, r, id)
	default:
		writeError(w, http.StatusNotFound, fmt.Errorf("no route %s %s", r.Method, r.URL.Path))
	}
}

// streamEvents pushes the job status as Server-Sent Events until the job
// reaches a terminal state or the client hangs up. Updates are sampled at
// a short interval — campaigns tick progress far faster than a dashboard
// needs — and a frame is only emitted when the status changed.
func (s *Server) streamEvents(w http.ResponseWriter, r *http.Request, id string) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, errors.New("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	s.metrics.sseSubs.Add(1)
	defer s.metrics.sseSubs.Add(-1)
	var last string
	emit := func() bool {
		st, ok := s.Job(id)
		if !ok {
			return false
		}
		frame, err := json.Marshal(st)
		if err != nil {
			return false
		}
		if string(frame) != last {
			last = string(frame)
			if _, err := fmt.Fprintf(w, "data: %s\n\n", frame); err != nil {
				return false // client hung up; stop streaming
			}
			flusher.Flush()
		}
		return st.State == StateRunning
	}
	ticker := time.NewTicker(100 * time.Millisecond)
	defer ticker.Stop()
	for emit() {
		select {
		case <-r.Context().Done():
			return
		case <-ticker.C:
		}
	}
}

// maxBodyBytes bounds every JSON body the API decodes and every
// response body the shard client reads. It sits far above any legitimate
// message — a spec, a lease, a shard accumulator checkpoint — so only a
// runaway or hostile body reaches it.
const maxBodyBytes = 8 << 20

// decodeBody strictly decodes a request body of at most maxBodyBytes
// into v (unknown fields are an error). A body over the limit is
// answered 413, any other decode failure 400 naming what was expected;
// it reports whether v was decoded.
func decodeBody(w http.ResponseWriter, r *http.Request, v any, what string) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, fmt.Errorf("bad %s: %w", what, err))
		return false
	}
	return true
}

// writeJSON writes a JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError writes a JSON error envelope.
func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
