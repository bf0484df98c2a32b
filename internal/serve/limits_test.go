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
// rejects it with 400 for what it says, not for its size). With the
// fabric API mounted behind the server's instruments, as mcserved
// mounts it, every route counts its one 413 under its own label, and
// no route counts more 413s than requests.
func TestRequestBodyLimit(t *testing.T) {
	srv, api := newTestServer(t)
	f, _ := newFabricServer(t, fabric.Config{})
	fab := httptest.NewServer(srv.Instrument(f.Handler()))
	t.Cleanup(fab.Close)
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
	snap := snapshot(t, api.URL)
	byRoute := func(name string) map[string]float64 {
		f, ok := snap.Find(name)
		if !ok {
			t.Fatalf("family %s missing from scrape", name)
		}
		out := map[string]float64{}
		for _, m := range f.Metrics {
			out[m.LabelValue] = *m.Value
		}
		return out
	}
	tooLarge, requests := byRoute("mcserved_http_requests_too_large_total"), byRoute("mcserved_http_requests_total")
	if len(tooLarge) != len(routes) {
		t.Fatalf("413s by route %v, want one on each of %d routes", tooLarge, len(routes))
	}
	for _, url := range routes {
		rt := url[strings.Index(url, "/v1/"):]
		if tooLarge[rt] != 1 {
			t.Fatalf("413s by route %v, want one on %s", tooLarge, rt)
		}
	}
	for rt, n := range tooLarge {
		if n > requests[rt] {
			t.Fatalf("route %s: %v 413s but %v requests", rt, n, requests[rt])
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
