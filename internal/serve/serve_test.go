package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/testbench"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(context.Background())
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatal(err)
	}
}

func postSpec(t *testing.T, url string, body string) (*http.Response, JobStatus) {
	t.Helper()
	resp, err := http.Post(url+"/v1/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return resp, st
}

func waitState(t *testing.T, url, id string, timeout time.Duration, states ...string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var st JobStatus
		getJSON(t, url+"/v1/jobs/"+id, &st)
		for _, s := range states {
			if st.State == s {
				return st
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %q after %v", id, st.State, timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// GET /v1/campaigns serves the registry catalogue with schemas.
func TestListCampaigns(t *testing.T) {
	_, ts := newTestServer(t)
	var infos []testbench.Info
	getJSON(t, ts.URL+"/v1/campaigns", &infos)
	if len(infos) != len(testbench.Names()) {
		t.Fatalf("%d campaigns served, registry has %d", len(infos), len(testbench.Names()))
	}
	seen := map[string]bool{}
	for _, info := range infos {
		seen[info.Name] = true
	}
	for _, name := range []string{"fig4mc", "yield", "faults", "noisesweep"} {
		if !seen[name] {
			t.Fatalf("campaign %s missing from catalogue", name)
		}
	}
}

// Submitting a spec runs it to completion; the job carries the full
// Result envelope, and its text matches a direct in-process run exactly
// (the over-the-wire bit-identity contract).
func TestSubmitRunAndResult(t *testing.T) {
	_, ts := newTestServer(t)
	resp, st := postSpec(t, ts.URL,
		`{"campaign":"fig4mc","seed":7,"workers":2,"params":{"monitor":2,"dies":25,"cols":11}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST status %s", resp.Status)
	}
	if st.State != StateRunning {
		t.Fatalf("fresh job state %q", st.State)
	}
	final := waitState(t, ts.URL, st.ID, 30*time.Second, StateDone, StateFailed)
	if final.State != StateDone {
		t.Fatalf("job ended %q: %s", final.State, final.Error)
	}
	direct, err := testbench.Run(context.Background(), testbench.Spec{
		Campaign: "fig4mc", Seed: 7, Workers: 2,
		Params: testbench.Fig4MCParams{Monitor: 2, Dies: 25, Cols: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.Result == nil || final.Result.Text != direct.Text {
		t.Fatal("HTTP job result differs from the direct registry run")
	}
	// The served result must round-trip back to a typed payload.
	data, err := json.Marshal(final.Result)
	if err != nil {
		t.Fatal(err)
	}
	back, err := testbench.DecodeResult(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := back.Payload.(*testbench.Fig4MC); !ok {
		t.Fatalf("decoded payload is %T", back.Payload)
	}
}

// A body that sets the retired "scalar" engine switch is still accepted
// and returns the payload of the same body without it; the job's
// effective spec records scalar as false.
func TestSubmitRetiredScalarSpec(t *testing.T) {
	_, ts := newTestServer(t)
	const params = `"params":{"max_dev":0.1,"points":5,"tol":0.05}`
	var payloads [2][]byte
	for i, body := range []string{
		`{"campaign":"fig8",` + params + `}`,
		`{"campaign":"fig8","scalar":true,` + params + `}`,
	} {
		resp, st := postSpec(t, ts.URL, body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST %s: status %s", body, resp.Status)
		}
		final := waitState(t, ts.URL, st.ID, 30*time.Second, StateDone, StateFailed)
		if final.State != StateDone {
			t.Fatalf("POST %s: job ended %q: %s", body, final.State, final.Error)
		}
		if final.Result.Spec.Scalar {
			t.Fatalf("POST %s: effective spec records scalar", body)
		}
		data, err := json.Marshal(final.Result.Payload)
		if err != nil {
			t.Fatal(err)
		}
		payloads[i] = data
	}
	if !bytes.Equal(payloads[0], payloads[1]) {
		t.Fatalf("scalar changed the payload:\n%s\nvs\n%s", payloads[1], payloads[0])
	}
}

// Bad specs are rejected with 400 before any job is created.
func TestSubmitValidation(t *testing.T) {
	s, ts := newTestServer(t)
	for _, body := range []string{
		`{"campaign":"nope"}`,
		`{"campaign":"fig4mc","params":{"diez":3}}`,
		`{"campaign":"fig8","backend":"bogus"}`,
		`{not json`,
	} {
		resp, _ := postSpec(t, ts.URL, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %s: status %s, want 400", body, resp.Status)
		}
	}
	if n := len(s.Jobs()); n != 0 {
		t.Fatalf("%d jobs created by invalid specs", n)
	}
}

// Cancelling through the HTTP endpoint aborts a long campaign promptly.
func TestCancelEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	resp, st := postSpec(t, ts.URL,
		`{"campaign":"yield","seed":3,"chunk":8,"params":{"n":1000000,"component_sigma":0.02,"tol":0.05,"threshold":0.03}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST status %s", resp.Status)
	}
	// Let it make some progress first, so the cancel is genuinely
	// mid-flight. The small chunk makes the streamed campaign tick early
	// instead of after its first 4096-trial chunk.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var cur JobStatus
		getJSON(t, ts.URL+"/v1/jobs/"+st.ID, &cur)
		if cur.Progress.Done > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job made no progress in 10s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	cresp, err := http.Post(ts.URL+"/v1/jobs/"+st.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %s", cresp.Status)
	}
	final := waitState(t, ts.URL, st.ID, 10*time.Second, StateCancelled, StateDone, StateFailed)
	if final.State != StateCancelled {
		t.Fatalf("job ended %q, want cancelled", final.State)
	}
	if final.Result != nil {
		t.Fatal("cancelled job carries a result")
	}
}

// The SSE stream emits status frames and terminates with the job.
func TestEventsStream(t *testing.T) {
	_, ts := newTestServer(t)
	_, st := postSpec(t, ts.URL,
		`{"campaign":"fig4mc","seed":7,"params":{"dies":30,"cols":9}}`)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var lastFrame []byte
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for scanner.Scan() {
		line := scanner.Bytes()
		if bytes.HasPrefix(line, []byte("data: ")) {
			lastFrame = append([]byte(nil), bytes.TrimPrefix(line, []byte("data: "))...)
		}
	}
	if lastFrame == nil {
		t.Fatal("no SSE frames received")
	}
	var final JobStatus
	if err := json.Unmarshal(lastFrame, &final); err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("final streamed state %q: %s", final.State, final.Error)
	}
	if final.Progress != (Progress{Done: 30, Total: 30}) {
		t.Fatalf("final streamed progress %+v", final.Progress)
	}
}

// GET /v1/jobs lists jobs newest first; unknown jobs 404.
func TestJobsListingAndNotFound(t *testing.T) {
	_, ts := newTestServer(t)
	_, first := postSpec(t, ts.URL, `{"campaign":"table1"}`)
	_, second := postSpec(t, ts.URL, `{"campaign":"table1"}`)
	waitState(t, ts.URL, first.ID, 10*time.Second, StateDone)
	waitState(t, ts.URL, second.ID, 10*time.Second, StateDone)
	var jobs []JobStatus
	getJSON(t, ts.URL+"/v1/jobs", &jobs)
	if len(jobs) != 2 || jobs[0].ID != second.ID || jobs[1].ID != first.ID {
		t.Fatalf("job listing wrong: %+v", jobs)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/job-999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status %s", resp.Status)
	}
}

// Closing the server cancels in-flight jobs (graceful shutdown).
func TestCloseCancelsJobs(t *testing.T) {
	s := New(context.Background())
	st, err := s.Submit(testbench.Spec{
		Campaign: "yield",
		Params:   map[string]any{"n": 1000000, "threshold": 0.03},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	final, ok := s.Job(st.ID)
	if !ok {
		t.Fatal("job lost")
	}
	if final.State != StateCancelled && final.State != StateDone {
		t.Fatalf("job state after Close: %q", final.State)
	}
}

// A production-scale submission: a 1,000,000-trial yield spec is
// accepted, streams monotone chunk-granular progress over SSE while the
// reduction runs, and cancels cleanly through the API — the server never
// materializes per-trial state, so the spec's size costs nothing.
func TestMillionTrialSpecStreamsChunkProgress(t *testing.T) {
	if testing.Short() {
		t.Skip("live campaign stream skipped in -short mode")
	}
	_, ts := newTestServer(t)
	resp, st := postSpec(t, ts.URL,
		`{"campaign":"yield","seed":3,"chunk":16,"params":{"n":1000000,"component_sigma":0.02,"tol":0.05,"threshold":0.03}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("1M-trial spec rejected: %s", resp.Status)
	}
	evResp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer evResp.Body.Close()
	scanner := bufio.NewScanner(evResp.Body)
	scanner.Buffer(make([]byte, 0, 1<<20), 1<<20)
	frames, lastDone := 0, 0
	cancelled := false
	var final JobStatus
	for scanner.Scan() {
		line := scanner.Bytes()
		if !bytes.HasPrefix(line, []byte("data: ")) {
			continue
		}
		var js JobStatus
		if err := json.Unmarshal(bytes.TrimPrefix(line, []byte("data: ")), &js); err != nil {
			t.Fatal(err)
		}
		final = js
		if js.Progress.Total != 0 && js.Progress.Total != 1000000 {
			t.Fatalf("progress total = %d, want 1000000", js.Progress.Total)
		}
		if js.Progress.Done < lastDone {
			t.Fatalf("progress went backwards: %d after %d", js.Progress.Done, lastDone)
		}
		lastDone = js.Progress.Done
		frames++
		// Once progress is visibly flowing, cancel through the API.
		if !cancelled && js.Progress.Done >= 32 {
			cancelled = true
			cResp, err := http.Post(ts.URL+"/v1/jobs/"+st.ID+"/cancel", "application/json", nil)
			if err != nil {
				t.Fatal(err)
			}
			cResp.Body.Close()
		}
	}
	if !cancelled {
		t.Fatalf("never saw enough progress to cancel (last frame %+v)", final)
	}
	if final.State != StateCancelled {
		t.Fatalf("final state %q, want cancelled", final.State)
	}
	if final.Progress.Done >= 1000000 {
		t.Fatal("cancelled job claims full completion")
	}
}
