package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/testbench"
)

// scrape fetches /metrics in the requested format from the test server.
func scrape(t *testing.T, url, format string) []byte {
	t.Helper()
	target := url + "/metrics"
	if format != "" {
		target += "?format=" + format
	}
	resp, err := http.Get(target)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", target, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// snapshot decodes the JSON variant of a scrape.
func snapshot(t *testing.T, url string) metrics.JSONSnapshot {
	t.Helper()
	var snap metrics.JSONSnapshot
	if err := json.Unmarshal(scrape(t, url, "json"), &snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// total reads one family's summed scalar value out of a snapshot.
func total(t *testing.T, snap metrics.JSONSnapshot, name string) float64 {
	t.Helper()
	f, ok := snap.Find(name)
	if !ok {
		t.Fatalf("family %s missing from scrape", name)
	}
	return f.Total()
}

// histCount reads a plain histogram family's observation count.
func histCount(t *testing.T, snap metrics.JSONSnapshot, name string) uint64 {
	t.Helper()
	f, ok := snap.Find(name)
	if !ok {
		t.Fatalf("family %s missing from scrape", name)
	}
	if len(f.Metrics) != 1 || f.Metrics[0].Count == nil {
		t.Fatalf("family %s is not a plain histogram", name)
	}
	return *f.Metrics[0].Count
}

// Running a campaign end to end moves every layer of the instrument
// set: trials counted, chunks timed, the job accounted by terminal
// state, and the HTTP routes that carried it counted and timed.
func TestMetricsEndToEnd(t *testing.T) {
	_, ts := newTestServer(t)
	before := snapshot(t, ts.URL)

	const n = 4096
	resp, st := postSpec(t, ts.URL,
		`{"campaign":"yield","seed":3,"workers":4,"chunk":256,"params":{"n":4096}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST status %s", resp.Status)
	}
	waitState(t, ts.URL, st.ID, 30*time.Second, StateDone)

	after := snapshot(t, ts.URL)
	if d := total(t, after, "mccampaign_trials_total") - total(t, before, "mccampaign_trials_total"); d != n {
		t.Fatalf("trial counter moved by %v, campaign ran %d trials", d, n)
	}
	wantChunks := uint64(n / 256)
	if d := histCount(t, after, "mccampaign_chunk_seconds") - histCount(t, before, "mccampaign_chunk_seconds"); d != wantChunks {
		t.Fatalf("chunk latency histogram grew by %d observations, want %d", d, wantChunks)
	}
	doneJobs, ok := after.Find("mcserved_jobs_total")
	if !ok {
		t.Fatal("mcserved_jobs_total missing from scrape")
	}
	var doneCount float64
	for _, m := range doneJobs.Metrics {
		if m.LabelValue == StateDone && m.Value != nil {
			doneCount = *m.Value
		}
	}
	if doneCount < 1 {
		t.Fatalf("jobs_total{state=done} = %v after a completed job", doneCount)
	}
	if v := total(t, after, "mcserved_jobs_in_flight"); v != 0 {
		t.Fatalf("jobs_in_flight = %v with no job running", v)
	}
	if v := total(t, after, "mccampaign_workers_busy"); v != 0 {
		t.Fatalf("workers_busy = %v with no job running", v)
	}
	if v := total(t, after, "mccampaign_workers_configured"); v != 4 {
		t.Fatalf("workers_configured = %v, job ran with 4", v)
	}
	reqs, ok := after.Find("mcserved_http_requests_total")
	if !ok {
		t.Fatal("mcserved_http_requests_total missing from scrape")
	}
	byRoute := map[string]float64{}
	for _, m := range reqs.Metrics {
		if m.Value != nil {
			byRoute[m.LabelValue] = *m.Value
		}
	}
	if byRoute["/v1/campaigns"] < 1 || byRoute["/v1/jobs/{id}"] < 1 || byRoute["/metrics"] < 1 {
		t.Fatalf("per-route request counts incomplete: %v", byRoute)
	}
	lat, ok := after.Find("mcserved_http_request_seconds")
	if !ok || len(lat.Metrics) == 0 {
		t.Fatal("mcserved_http_request_seconds missing or empty")
	}
}

// The trial counter advances by exactly each job's trial count, summed
// over its phases. A noise job's phases need not shrink from one to the
// next (here 20 null trials, then five phases of 10); fig8 runs on
// campaign.Collect, one trial per chunk; and a faults job without a
// threshold runs a 9-point Collect sweep before its streamed faults.
func TestTrialCounterCountsEveryPhase(t *testing.T) {
	_, ts := newTestServer(t)
	for _, tc := range []struct {
		body   string
		trials float64
	}{
		{`{"campaign":"noise","seed":5,"workers":1,"params":{"sigma":0.005,"devs":[0.005,0.01,0.02,0.05],"null_trials":20,"trials":10}}`, 20 + (1+4)*10},
		{`{"campaign":"fig8","workers":2,"params":{"points":9}}`, 9},
		{`{"campaign":"faults","workers":2,"params":{"tol":0.05}}`, float64(9 + len(testbench.DefaultFaultSet()))},
	} {
		before := total(t, snapshot(t, ts.URL), "mccampaign_trials_total")
		resp, st := postSpec(t, ts.URL, tc.body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST %s: %s", tc.body, resp.Status)
		}
		waitState(t, ts.URL, st.ID, 30*time.Second, StateDone)
		if d := total(t, snapshot(t, ts.URL), "mccampaign_trials_total") - before; d != tc.trials {
			t.Fatalf("%s: trial counter moved by %v, job ran %v trials", tc.body, d, tc.trials)
		}
	}
}

// Scrape determinism through the serve stack: a quiescent registry
// renders byte-identically, and over HTTP — where each scrape ticks its
// own request counter afterwards — consecutive scrapes expose the same
// families in the same order with the same label children. This is the
// property dashboards and the load gate's before/after diffing rely on.
func TestMetricsScrapeDeterministicOverHTTP(t *testing.T) {
	s, ts := newTestServer(t)
	_, st := postSpec(t, ts.URL, `{"campaign":"yield","seed":9,"params":{"n":512}}`)
	waitState(t, ts.URL, st.ID, 30*time.Second, StateDone)

	var a, b bytes.Buffer
	if err := s.Metrics().WriteProm(&a); err != nil {
		t.Fatal(err)
	}
	if err := s.Metrics().WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("two scrapes of a quiescent registry differ:\n%s\n---\n%s", a.String(), b.String())
	}

	shape := func(snap metrics.JSONSnapshot) []string {
		var out []string
		for _, f := range snap.Families {
			line := f.Name + "|" + f.Type + "|" + f.Label
			for _, m := range f.Metrics {
				line += "|" + m.LabelValue
			}
			out = append(out, line)
		}
		return out
	}
	// Warm up: the first /metrics scrape itself mints the "/metrics"
	// route child after it renders, so compare scrapes past bootstrap.
	_ = snapshot(t, ts.URL)
	s1 := shape(snapshot(t, ts.URL))
	s2 := shape(snapshot(t, ts.URL))
	if len(s1) == 0 {
		t.Fatal("empty scrape")
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("scrape order drifted at family %d:\n%s\nvs\n%s", i, s1[i], s2[i])
		}
	}
}

// A campaign run with the full metrics stack attached returns exactly
// the bytes a bare run returns, at 1, 4 and 8 workers — the ISSUE's
// bit-identity acceptance gate, exercised through the serve layer that
// actually attaches the instruments.
func TestMetricsDoNotAffectResults(t *testing.T) {
	spec := func(workers int) testbench.Spec {
		return testbench.Spec{Campaign: "yield", Seed: 11, Workers: workers, Chunk: 128,
			Params: map[string]any{"n": float64(2048)}}
	}
	run := func(workers int) string {
		s := New(nil)
		defer s.Close()
		st, err := s.Submit(spec(workers))
		if err != nil {
			t.Fatal(err)
		}
		j, _ := s.Job(st.ID)
		for j.State == StateRunning {
			time.Sleep(5 * time.Millisecond)
			j, _ = s.Job(st.ID)
		}
		if j.State != StateDone {
			t.Fatalf("workers=%d: job ended %s: %s", workers, j.State, j.Error)
		}
		data, err := json.Marshal(j.Result.Payload)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	ref := run(1)
	for _, w := range []int{4, 8} {
		if got := run(w); got != ref {
			t.Fatalf("instrumented run at %d workers differs from 1-worker run:\n%s\nvs\n%s", w, got, ref)
		}
	}
}

// TestRouteLabelsBounded: every path maps into the fixed route set of
// docs/METRICS.md, the fabric API's included; ids never become label
// values, and neither do unknown actions.
func TestRouteLabelsBounded(t *testing.T) {
	for path, want := range map[string]string{
		"/v1/campaigns":                     "/v1/campaigns",
		"/v1/jobs":                          "/v1/jobs",
		"/v1/jobs/j-17":                     "/v1/jobs/{id}",
		"/v1/jobs/j-17/cancel":              "/v1/jobs/{id}/cancel",
		"/v1/jobs/j-17/events":              "/v1/jobs/{id}/events",
		"/v1/jobs/j-17/x9f3":                "other",
		"/v1/jobs/j-17/":                    "/v1/jobs/{id}",
		"/metrics":                          "/metrics",
		"/v1/fabric/jobs":                   "/v1/fabric/jobs",
		"/v1/fabric/jobs/smoke":             "/v1/fabric/jobs/{id}",
		"/v1/fabric/jobs/smoke/result":      "/v1/fabric/jobs/{id}/result",
		"/v1/fabric/jobs/smoke/cancel":      "/v1/fabric/jobs/{id}/cancel",
		"/v1/fabric/jobs/smoke/result/more": "other",
		"/v1/shards/lease":                  "/v1/shards/lease",
		"/v1/shards/heartbeat":              "/v1/shards/heartbeat",
		"/v1/shards/report":                 "/v1/shards/report",
		"/v1/shards/fail":                   "/v1/shards/fail",
		"/v1/shards/other":                  "other",
		"/":                                 "other",
	} {
		if got := route(httptest.NewRequest(http.MethodGet, path, nil)); got != want {
			t.Errorf("route(%s) = %q, want %q", path, got, want)
		}
	}
}
