package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/fabric"
	"repro/internal/metrics"
)

// serverMetrics is the instrument set one Server owns. Every family is
// registered at construction in a fixed order, so two servers — or two
// scrapes of one — always expose the same families in the same order.
type serverMetrics struct {
	reg *metrics.Registry

	httpRequests *metrics.CounterVec   // by route
	httpSeconds  *metrics.HistogramVec // by route
	jobsTotal    *metrics.CounterVec   // by terminal state
	sseSubs      *metrics.Gauge

	trials      *metrics.Counter
	chunkSecs   *metrics.Histogram
	workersBusy *metrics.Gauge
	workersConf *metrics.Gauge
}

// newServerMetrics registers the serve and campaign families on reg;
// the job gauges read the server's coordinator at scrape time.
func newServerMetrics(reg *metrics.Registry, coord *fabric.Coordinator) *serverMetrics {
	m := &serverMetrics{
		reg: reg,
		httpRequests: reg.CounterVec("mcserved_http_requests_total",
			"HTTP requests served, by route pattern.", "", "route"),
		httpSeconds: reg.HistogramVec("mcserved_http_request_seconds",
			"HTTP request latency, by route pattern.", "seconds", "route", nil),
		jobsTotal: reg.CounterVec("mcserved_jobs_total",
			"Campaign jobs finished, by terminal state.", "", "state"),
		sseSubs: reg.Gauge("mcserved_sse_subscribers",
			"Open /v1/jobs/{id}/events streams.", ""),
		trials: reg.Counter("mccampaign_trials_total",
			"Monte-Carlo trials completed across all jobs.", ""),
		chunkSecs: reg.Histogram("mccampaign_chunk_seconds",
			"Fold latency of one reduction chunk.", "seconds", nil),
		workersBusy: reg.Gauge("mccampaign_workers_busy",
			"Reduction chunks currently being folded (live worker saturation).", ""),
		workersConf: reg.Gauge("mccampaign_workers_configured",
			"Worker-pool size of the most recently started reduction.", ""),
	}
	reg.GaugeFunc("mcserved_jobs_in_flight", "Campaign jobs currently running.", "",
		func() float64 { running, _ := coord.Count(); return float64(running) })
	reg.GaugeFunc("mcserved_jobs_retained", "Finished campaign jobs kept queryable (at most fabric.MaxRetained).", "",
		func() float64 { _, retained := coord.Count(); return float64(retained) })
	return m
}

// jobMeter adapts one job's campaign.Meter events into metrics. The
// campaign engine is clock-free by contract, so the timing lives here:
// ChunkStart timestamps the chunk and ChunkDone turns the pair into a
// latency observation. ChunkDone's count is the engine's exact folded
// trial count on every exit path, so it feeds the trial counter too.
// Meters of concurrent jobs share the same instrument set.
type jobMeter struct {
	m  *serverMetrics
	mu sync.Mutex
	at map[int]time.Time // chunk index -> fold start
}

func newJobMeter(m *serverMetrics) *jobMeter {
	return &jobMeter{m: m, at: map[int]time.Time{}}
}

func (jm *jobMeter) ReduceStart(workers, trials int) {
	jm.m.workersConf.Set(float64(workers))
}

func (jm *jobMeter) ChunkStart(chunk int) {
	now := time.Now()
	jm.mu.Lock()
	jm.at[chunk] = now
	jm.mu.Unlock()
	jm.m.workersBusy.Add(1)
}

func (jm *jobMeter) ChunkDone(chunk, trials int) {
	jm.mu.Lock()
	start, ok := jm.at[chunk]
	delete(jm.at, chunk)
	jm.mu.Unlock()
	jm.m.workersBusy.Add(-1)
	jm.m.trials.Add(uint64(trials))
	if ok {
		jm.m.chunkSecs.Observe(time.Since(start).Seconds())
	}
}

// route normalizes a request path to its route pattern so the per-route
// label set stays fixed no matter how many jobs exist.
func route(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/v1/campaigns":
		return "/v1/campaigns"
	case p == "/v1/jobs":
		return "/v1/jobs"
	case strings.HasPrefix(p, "/v1/jobs/"):
		rest := strings.TrimPrefix(p, "/v1/jobs/")
		if _, action, _ := strings.Cut(rest, "/"); action != "" {
			return "/v1/jobs/{id}/" + action
		}
		return "/v1/jobs/{id}"
	case p == "/metrics":
		return "/metrics"
	default:
		return "other"
	}
}

// statusWriter records the response code for logging while passing
// Flush through — the SSE stream dies behind a wrapper that hides
// http.Flusher.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument counts and times every request by route pattern.
func (m *serverMetrics) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rt := route(r)
		start := time.Now()
		next.ServeHTTP(w, r)
		m.httpRequests.With(rt).Inc()
		m.httpSeconds.With(rt).Observe(time.Since(start).Seconds())
	})
}

// Log formats accepted by AccessLog.
const (
	LogText = "text" // key=value pairs, one request per line
	LogJSON = "json" // one JSON object per line
)

// accessRecord is the JSON shape of one request log line.
type accessRecord struct {
	Time     string  `json:"time"`
	Method   string  `json:"method"`
	Path     string  `json:"path"`
	Route    string  `json:"route"`
	Status   int     `json:"status"`
	Duration float64 `json:"duration_s"`
	Remote   string  `json:"remote,omitempty"`
}

// AccessLog wraps a handler with structured request logging: one line
// per completed request, in key=value form (LogText) or as a JSON
// object (LogJSON), written to out. Lines are serialized under a lock,
// so out needs no locking of its own. Any other format disables
// logging and returns next unchanged.
func AccessLog(out io.Writer, format string, next http.Handler) http.Handler {
	if format != LogText && format != LogJSON {
		return next
	}
	var mu sync.Mutex
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r)
		rec := accessRecord{
			Time:     start.UTC().Format(time.RFC3339Nano),
			Method:   r.Method,
			Path:     r.URL.Path,
			Route:    route(r),
			Status:   sw.code,
			Duration: time.Since(start).Seconds(),
			Remote:   r.RemoteAddr,
		}
		var line []byte
		if format == LogJSON {
			line, _ = json.Marshal(rec)
		} else {
			line = []byte(fmt.Sprintf("time=%s method=%s path=%s route=%s status=%d duration_s=%.6f remote=%s",
				rec.Time, rec.Method, rec.Path, rec.Route, rec.Status, rec.Duration, rec.Remote))
		}
		mu.Lock()
		defer mu.Unlock()
		// A log line that cannot be written is not actionable from the
		// request path; the next scrape of the metrics still has the count.
		_, _ = out.Write(append(line, '\n'))
	})
}
