package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/fabric"
	"repro/internal/testbench"
)

func newFabricServer(t *testing.T, cfg fabric.Config) (*Fabric, *httptest.Server) {
	t.Helper()
	if cfg.Store == nil {
		store, err := fabric.OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		cfg.Store = store
	}
	coord := fabric.NewCoordinator(cfg)
	t.Cleanup(func() {
		if err := coord.Close(); err != nil {
			t.Error(err)
		}
	})
	f := NewFabric(coord)
	ts := httptest.NewServer(f.Handler())
	t.Cleanup(ts.Close)
	return f, ts
}

// TestFabricTwoWorkersOverHTTP is the wire-level version of the fabric
// smoke: a real yield campaign split across two shards, run by two
// workers that only speak the HTTP shard protocol, with one initial
// lease deliberately dropped — the merged result must equal the
// in-process single-node run bit for bit.
func TestFabricTwoWorkersOverHTTP(t *testing.T) {
	if testing.Short() {
		t.Skip("real campaign: seconds of trial work")
	}
	spec := testbench.Spec{
		Campaign:   "yield",
		Seed:       5,
		Chunk:      64,
		Checkpoint: 64,
		Params:     map[string]any{"n": 256},
	}
	ctx := context.Background()
	base, err := testbench.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	wantPayload, err := json.Marshal(base.Payload)
	if err != nil {
		t.Fatal(err)
	}

	f, ts := newFabricServer(t, fabric.Config{LeaseTTL: 300 * time.Millisecond})
	backend := &HTTPBackend{Base: ts.URL}

	// Submit over the wire.
	resp, err := http.Post(ts.URL+"/v1/fabric/jobs", "application/json",
		strings.NewReader(`{"id":"smoke","spec":{"campaign":"yield","seed":5,"chunk":64,"checkpoint":64,"params":{"n":256}},"shards":2}`))
	if err != nil {
		t.Fatal(err)
	}
	var st FabricJobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	closeErr := resp.Body.Close()
	if err != nil || closeErr != nil {
		t.Fatal(err, closeErr)
	}
	if resp.StatusCode != http.StatusAccepted || len(st.Shards) != 2 {
		t.Fatalf("submit: %s, %d shards", resp.Status, len(st.Shards))
	}

	// Drop a lease: take shard 0 as a ghost worker and never heartbeat.
	// The TTL must requeue it for the real workers.
	ghost, ok, err := backend.Lease(ctx, "ghost")
	if err != nil || !ok {
		t.Fatalf("ghost lease: ok=%v err=%v", ok, err)
	}

	wctx, stop := context.WithCancel(ctx)
	defer stop()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		w := &fabric.Worker{Backend: backend, ID: fmt.Sprintf("w%d", i), Poll: 20 * time.Millisecond}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(wctx); err != nil {
				t.Errorf("worker %s: %v", w.ID, err)
			}
		}()
	}
	res, err := f.coord.Wait(ctx, "smoke")
	stop()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	gotPayload, err := json.Marshal(res.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotPayload) != string(wantPayload) {
		t.Fatalf("fabric payload %s\nsingle-node %s", gotPayload, wantPayload)
	}

	// The ghost's token must have been superseded by the requeue.
	err = backend.Heartbeat(ctx, ghost, 0, nil)
	if !errors.Is(err, fabric.ErrUnknownLease) && !errors.Is(err, fabric.ErrLeaseRevoked) {
		t.Fatalf("ghost heartbeat after requeue: %v", err)
	}

	// Status and result endpoints over the wire.
	resp, err = http.Get(ts.URL + "/v1/fabric/jobs/smoke")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	closeErr = resp.Body.Close()
	if err != nil || closeErr != nil {
		t.Fatal(err, closeErr)
	}
	if st.Phase != fabric.PhaseDone {
		t.Fatalf("status phase %s", st.Phase)
	}
	for i, sh := range st.Shards {
		if !sh.Done || sh.Through != sh.Span.Hi {
			t.Fatalf("shard %d status %+v", i, sh)
		}
	}
	resp, err = http.Get(ts.URL + "/v1/fabric/jobs/smoke/result")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result endpoint: %s", resp.Status)
	}
	var wire struct {
		Payload json.RawMessage `json:"payload"`
	}
	err = json.NewDecoder(resp.Body).Decode(&wire)
	closeErr = resp.Body.Close()
	if err != nil || closeErr != nil {
		t.Fatal(err, closeErr)
	}
	var rt any
	if err := json.Unmarshal(wire.Payload, &rt); err != nil {
		t.Fatal(err)
	}
	canonical, err := json.Marshal(rt)
	if err != nil {
		t.Fatal(err)
	}
	var baseRT any
	if err := json.Unmarshal(wantPayload, &baseRT); err != nil {
		t.Fatal(err)
	}
	wantCanonical, err := json.Marshal(baseRT)
	if err != nil {
		t.Fatal(err)
	}
	if string(canonical) != string(wantCanonical) {
		t.Fatalf("wire payload %s\nsingle-node %s", canonical, wantCanonical)
	}
}

// Clients retrying one explicit id race each other: of several
// concurrent POSTs of the same id exactly one is accepted, and every
// other one answers 400 with the already-exists error.
func TestFabricConcurrentSubmitsOfOneID(t *testing.T) {
	const clients, reps = 8, 20
	f, ts := newFabricServer(t, fabric.Config{})
	for rep := 0; rep < reps; rep++ {
		body := fmt.Sprintf(`{"id":"dup-%d","spec":{"campaign":"table1"},"shards":1}`, rep)
		start := make(chan struct{})
		codes := make([]int, clients)
		msgs := make([]string, clients)
		var wg sync.WaitGroup
		for i := range codes {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				resp, err := http.Post(ts.URL+"/v1/fabric/jobs", "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var e struct {
					Error string `json:"error"`
				}
				_ = json.NewDecoder(resp.Body).Decode(&e) // a 202 carries a status, not an error
				if err := resp.Body.Close(); err != nil {
					t.Error(err)
				}
				codes[i], msgs[i] = resp.StatusCode, e.Error
			}(i)
		}
		close(start)
		wg.Wait()
		accepted := 0
		for i, code := range codes {
			switch {
			case code == http.StatusAccepted:
				accepted++
			case code != http.StatusBadRequest || !strings.Contains(msgs[i], "already exists"):
				t.Fatalf("rep %d: losing POST answered %d %q, want 400 with the already-exists error", rep, code, msgs[i])
			}
		}
		if accepted != 1 {
			t.Fatalf("rep %d: %d of %d concurrent POSTs of one id accepted, want exactly 1", rep, accepted, clients)
		}
	}
	if ids := f.coord.Jobs(); len(ids) != reps {
		t.Fatalf("coordinator holds %d jobs, want %d", len(ids), reps)
	}
}

// TestFabricHTTPErrors pins the wire error mapping: the sentinel errors
// a Worker keys its control flow off must survive the HTTP round trip.
func TestFabricHTTPErrors(t *testing.T) {
	_, ts := newFabricServer(t, fabric.Config{})
	backend := &HTTPBackend{Base: ts.URL}
	ctx := context.Background()

	// Unknown job: 404 with the sentinel.
	err := backend.Heartbeat(ctx, &fabric.Lease{Job: "nope", Token: "t"}, 0, nil)
	if !errors.Is(err, fabric.ErrUnknownJob) {
		t.Fatalf("unknown job over the wire: %v", err)
	}

	// No pending work: 204 maps to ok == false.
	if _, ok, err := backend.Lease(ctx, "w"); err != nil || ok {
		t.Fatalf("lease with no jobs: ok=%v err=%v", ok, err)
	}

	// Submit a real job, cancel it, and check the revocation code.
	resp, err := http.Post(ts.URL+"/v1/fabric/jobs", "application/json",
		strings.NewReader(`{"id":"j","spec":{"campaign":"yield","seed":1,"params":{"n":128}},"shards":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	ls, ok, err := backend.Lease(ctx, "w")
	if err != nil || !ok {
		t.Fatalf("lease: ok=%v err=%v", ok, err)
	}
	resp, err = http.Post(ts.URL+"/v1/fabric/jobs/j/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %s", resp.Status)
	}
	if err := backend.Heartbeat(ctx, ls, 0, nil); !errors.Is(err, fabric.ErrLeaseRevoked) {
		t.Fatalf("heartbeat after cancel: %v", err)
	}
	if err := backend.Report(ctx, ls, []byte("acc")); !errors.Is(err, fabric.ErrLeaseRevoked) {
		t.Fatalf("report after cancel: %v", err)
	}

	// Result of a non-done job: 409.
	resp, err = http.Get(ts.URL + "/v1/fabric/jobs/j/result")
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("result of cancelled job: %s", resp.Status)
	}

	// Bad submission: unknown campaign.
	resp, err = http.Post(ts.URL+"/v1/fabric/jobs", "application/json",
		strings.NewReader(`{"id":"x","spec":{"campaign":"nope"},"shards":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown campaign: %s", resp.Status)
	}

	// A campaign without a sharded form is accepted as one opaque span,
	// whatever shard count it asks for.
	resp, err = http.Post(ts.URL+"/v1/fabric/jobs", "application/json",
		strings.NewReader(`{"id":"opaque","spec":{"campaign":"fig4mc"},"shards":4}`))
	if err != nil {
		t.Fatal(err)
	}
	var st FabricJobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	closeErr := resp.Body.Close()
	if err != nil || closeErr != nil {
		t.Fatal(err, closeErr)
	}
	if resp.StatusCode != http.StatusAccepted || len(st.Shards) != 1 || st.Shards[0].Span != (campaign.Span{Lo: 0, Hi: 1}) {
		t.Fatalf("fig4mc submission: %s, shards %+v", resp.Status, st.Shards)
	}
}
