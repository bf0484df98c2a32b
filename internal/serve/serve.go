package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/testbench"
)

// Job states: the phases of the fabric job behind every campaign job.
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

// Server is the HTTP campaign service: a view over an in-memory fabric
// coordinator, whose every job is one shard run by an in-process worker.
// Create with New, mount Handler, Close on shutdown (cancels every
// running job).
type Server struct {
	coord   *fabric.Coordinator
	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup
	metrics *serverMetrics

	mu     sync.Mutex // orders submissions against Close
	seq    int        // N of the latest job-N
	closed bool
}

// inProcessLeaseTTL is the lease lifetime on the in-memory coordinator.
// The in-process worker heartbeats every third of it, and a heartbeat
// is how a cancel reaches a running job: within a third of a second
// plus the trial in flight.
const inProcessLeaseTTL = time.Second

// New returns a ready server; jobs inherit from ctx (nil = Background),
// so cancelling it — or calling Close — aborts every campaign in flight.
func New(ctx context.Context) *Server {
	if ctx == nil {
		ctx = context.Background() //mclint:ctxflow nil-ctx guard at construction; callers pass the process root ctx and Close cancels every job
	}
	base, stop := context.WithCancel(ctx)
	s := &Server{baseCtx: base, stop: stop}
	s.coord = fabric.NewCoordinator(fabric.Config{Store: fabric.NewMemoryStore(), Compile: s.compile, LeaseTTL: inProcessLeaseTTL})
	s.metrics = newServerMetrics(metrics.NewRegistry(), s.coord)
	return s
}

// compile is the coordinator's CompileFunc: the job's form with the
// campaign instruments compiled in, one meter per job. It only resolves
// the spec; the worker that runs the form builds its system.
func (s *Server) compile(ctx context.Context, spec testbench.Spec) (*testbench.ShardRun, error) {
	return testbench.Sharder(ctx, spec, testbench.WithMeter(newJobMeter(s.metrics)))
}

// Metrics returns the server's metric registry — the one GET /metrics
// exposes. Co-resident subsystems (the fabric coordinator in mcserved)
// register their families here so one scrape covers the process.
func (s *Server) Metrics() *metrics.Registry { return s.metrics.reg }

// Close cancels every running job, waits for the in-process workers to
// stop, and refuses later submissions.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.stop()
	s.wg.Wait()
}

// Submit starts a campaign job for the spec and returns its status — the
// programmatic form of POST /v1/campaigns. The spec is resolved before
// the job is created, so a bad spec never takes a job id; nothing is
// built or calibrated until the job's worker runs it.
func (s *Server) Submit(spec testbench.Spec) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return JobStatus{}, errors.New("serve: server closed")
	}
	id := fmt.Sprintf("job-%d", s.seq+1)
	if err := s.coord.Submit(s.baseCtx, id, spec, 1); err != nil {
		return JobStatus{}, err
	}
	s.seq++
	s.wg.Add(1)
	go s.run(id)
	st, _ := s.Job(id)
	return st, nil
}

// run is one submission's in-process worker. It leases until nothing is
// pending — its own job's shard or whichever it reaches first; a worker
// whose lease expired leases the requeued shard again — then waits for
// its job to end and counts its terminal state. A lease error needs no
// handling here: the shard requeues, and the job's phase records how it
// ended. When the server's context ends (Close, or the parent context),
// each worker cancels its own job.
func (s *Server) run(id string) {
	defer s.wg.Done()
	w := &fabric.Worker{Backend: s.coord, ID: id}
	for {
		if worked, _ := w.RunOne(s.baseCtx); !worked || s.baseCtx.Err() != nil {
			break
		}
	}
	if _, err := s.coord.Wait(s.baseCtx, id); err != nil && s.baseCtx.Err() != nil {
		_ = s.coord.Cancel(id) // a job that ended meanwhile answers ErrJobDone
	}
	if st, ok := s.Job(id); ok && st.State != StateRunning {
		s.metrics.jobsTotal.With(st.State).Inc()
	}
}

// Cancel aborts a running job; cancelling a terminal job is a no-op.
func (s *Server) Cancel(id string) (JobStatus, error) {
	if err := s.coord.Cancel(id); err != nil && !errors.Is(err, fabric.ErrJobDone) {
		return JobStatus{}, fmt.Errorf("serve: cancel %q: %w", id, err)
	}
	st, ok := s.Job(id)
	if !ok {
		return JobStatus{}, fmt.Errorf("serve: unknown job %q", id)
	}
	return st, nil
}

// Job returns one job's status, read from the coordinator's record.
func (s *Server) Job(id string) (JobStatus, bool) {
	info, err := s.coord.Info(id)
	if err != nil {
		return JobStatus{}, false
	}
	st := JobStatus{
		ID:       id,
		State:    string(info.Phase),
		Spec:     info.Spec,
		Progress: Progress{Done: info.Done, Total: info.Total},
		Error:    info.Failure,
		Result:   info.Result,
		Created:  info.Created,
	}
	if info.Phase == fabric.PhaseCancelled {
		st.Error = context.Canceled.Error()
	}
	if !info.Finished.IsZero() {
		st.Finished = &info.Finished
	}
	return st, true
}

// Jobs lists every retained job, newest first. Ids are job-N, so the
// longer id is the newer, and equal lengths order as strings.
func (s *Server) Jobs() []JobStatus {
	ids := s.coord.Jobs()
	slices.SortFunc(ids, func(a, b string) int {
		if len(a) != len(b) {
			return len(b) - len(a)
		}
		return strings.Compare(b, a)
	})
	out := make([]JobStatus, 0, len(ids))
	for _, id := range ids {
		if st, ok := s.Job(id); ok {
			out = append(out, st)
		}
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
	return s.Instrument(mux)
}

// Instrument wraps h in the server's per-route request instruments, so
// an API mounted beside Handler — the fabric API of a coordinator
// instance — has its requests, latencies and 413 answers counted in the
// same families.
func (s *Server) Instrument(h http.Handler) http.Handler { return s.metrics.instrument(h) }

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
