package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/fabric"
)

// jsonBodyOfSize is a syntactically valid JSON object of exactly n bytes
// whose one string value the decoder must read to its end, so a limit
// below n trips before any field is judged.
func jsonBodyOfSize(n int) string {
	const frame = `{"campaign":""}`
	return `{"campaign":"` + strings.Repeat("a", n-len(frame)) + `"}`
}

// Every JSON route answers a body one byte over maxBodyBytes with 413,
// and a body of exactly maxBodyBytes still reaches the decoder (which
// rejects it with 400 for what it says, not for its size).
func TestRequestBodyLimit(t *testing.T) {
	_, api := newTestServer(t)
	_, fab := newFabricServer(t, fabric.Config{})
	routes := []string{
		api.URL + "/v1/campaigns",
		fab.URL + "/v1/fabric/jobs",
		fab.URL + "/v1/shards/lease",
		fab.URL + "/v1/shards/heartbeat",
		fab.URL + "/v1/shards/report",
		fab.URL + "/v1/shards/fail",
	}
	for _, tc := range []struct {
		size int
		want int
	}{
		{maxBodyBytes + 1, http.StatusRequestEntityTooLarge},
		{maxBodyBytes, http.StatusBadRequest},
	} {
		body := jsonBodyOfSize(tc.size)
		for _, url := range routes {
			resp, err := http.Post(url, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			if err := resp.Body.Close(); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.want {
				t.Fatalf("POST %d bytes to %s: %s, want %d", tc.size, url, resp.Status, tc.want)
			}
		}
	}
}

// The shard client refuses a coordinator response over maxBodyBytes
// instead of buffering it whole.
func TestHTTPBackendResponseLimit(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(jsonBodyOfSize(maxBodyBytes + 1)))
	}))
	t.Cleanup(ts.Close)
	backend := &HTTPBackend{Base: ts.URL}
	_, _, err := backend.Lease(context.Background(), "w")
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized lease response: err = %v, want a size error", err)
	}
}

// Over-bound size knobs are refused at the door: a fig6 grid whose zone
// map would need 40 GB, a billion-point sweep, a 10^5-worker pool, a
// 10^6-shard fabric plan and the retired sketch_prec knob out of its
// 0..12 bound each answer 400, and none of them creates a job.
func TestSubmitRejectsOverBoundSizes(t *testing.T) {
	s, api := newTestServer(t)
	for _, body := range []string{
		`{"campaign":"fig6","params":{"grid":100000}}`,
		`{"campaign":"fig8","params":{"points":2000000000}}`,
		`{"campaign":"fig4mc","params":{"dies":1000000,"cols":4096}}`,
		`{"campaign":"yield","workers":100000,"chunk":1,"params":{"n":200000}}`,
		`{"campaign":"noise","params":{"sketch_prec":99}}`,
	} {
		resp, _ := postSpec(t, api.URL, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %s: %s, want 400", body, resp.Status)
		}
	}
	if n := len(s.Jobs()); n != 0 {
		t.Fatalf("%d jobs created by over-bound specs", n)
	}

	f, fab := newFabricServer(t, fabric.Config{})
	for _, body := range []string{
		`{"id":"wide","spec":{"campaign":"yield","params":{"n":1000000}},"shards":1000000}`,
		`{"id":"grid","spec":{"campaign":"fig6","params":{"grid":100000}},"shards":1}`,
		`{"id":"pool","spec":{"campaign":"yield","workers":100000,"chunk":1,"params":{"n":200000}},"shards":1}`,
		`{"id":"prec","spec":{"campaign":"noisesweep","params":{"sketch_prec":99}},"shards":1}`,
	} {
		resp, err := http.Post(fab.URL+"/v1/fabric/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %s: %s, want 400", body, resp.Status)
		}
	}
	if ids := f.coord.Jobs(); len(ids) != 0 {
		t.Fatalf("jobs %v created by over-bound submissions", ids)
	}
}
