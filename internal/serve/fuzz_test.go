package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/fabric"
)

// FuzzHandler drives both HTTP surfaces of mcserved — the campaign API
// (Server.Handler) and the fabric API (NewFabric(...).Handler) — with a
// fuzzed method, path and body. Whatever arrives: no request panics or
// answers 5xx, 413 answers only bodies over maxBodyBytes, and Close
// leaves no job running, so every job the input started was reachable
// by cancellation. The seed corpus is under testdata/fuzz/FuzzHandler.
func FuzzHandler(f *testing.F) {
	f.Add("GET", "/v1/campaigns", "")
	f.Fuzz(func(t *testing.T, method, path, body string) {
		if !strings.HasPrefix(path, "/") {
			path = "/" + path
		}
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, method, "http://mcserved"+path, strings.NewReader(body))
		if err != nil {
			t.Skip("not a request:", err)
		}
		s := New(context.Background())
		coord := fabric.NewCoordinator(fabric.Config{Store: fabric.NewMemoryStore()})
		fh := NewFabric(coord).Handler()
		mux := http.NewServeMux()
		mux.Handle("/", s.Handler())
		mux.Handle("/v1/fabric/", fh)
		mux.Handle("/v1/shards/", fh)

		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("%s %s (%d-byte body): %d %s", method, path, len(body), rec.Code, rec.Body.String())
		}
		if rec.Code == http.StatusRequestEntityTooLarge && len(body) <= maxBodyBytes {
			t.Fatalf("%s %s: 413 for a %d-byte body", method, path, len(body))
		}

		s.Close()
		for _, st := range s.Jobs() {
			if st.State == StateRunning {
				t.Fatalf("job %s (%s) still running after Close", st.ID, st.Spec.Campaign)
			}
		}
		if err := coord.Close(); err != nil {
			t.Fatal(err)
		}
	})
}
