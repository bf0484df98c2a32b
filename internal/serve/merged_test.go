package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/testbench"
)

// postJSON posts v as JSON and decodes the answer into out.
func postJSON(t *testing.T, url string, v, out any) int {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// compact strips the indentation the API answers with.
func compact(t *testing.T, raw json.RawMessage) string {
	t.Helper()
	var b bytes.Buffer
	if err := json.Compact(&b, raw); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// One spec, four paths — testbench.Run, POST /v1/campaigns, and POST
// /v1/fabric/jobs at 1 and 4 shards — give the same payload bytes, for a
// sharded campaign (yield, calibrating its threshold) and for two that
// run as one opaque span (fig4mc, noise).
func TestMergedPathsBitIdentical(t *testing.T) {
	_, api := newTestServer(t)
	_, fab := newFabricServer(t, fabric.Config{})
	ctx, stop := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer func() {
		stop()
		wg.Wait()
	}()
	for i := 0; i < 2; i++ {
		w := &fabric.Worker{Backend: &HTTPBackend{Base: fab.URL}, ID: fmt.Sprintf("w%d", i), Poll: 5 * time.Millisecond}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil {
				t.Errorf("worker %s: %v", w.ID, err)
			}
		}()
	}
	for _, spec := range []testbench.Spec{
		{Campaign: "yield", Seed: 5, Workers: 2, Chunk: 16, Params: testbench.YieldParams{N: 64, ComponentSigma: 0.02, Tol: 0.05}},
		{Campaign: "fig4mc", Seed: 7, Workers: 2, Params: testbench.Fig4MCParams{Monitor: 2, Dies: 12, Cols: 9}},
		{Campaign: "noise", Seed: 9, Workers: 2, Params: testbench.NoiseParams{Sigma: 0.005, Devs: []float64{0.01, 0.05}, NullTrials: 12, Trials: 6}},
	} {
		direct, err := testbench.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(direct.Payload)
		if err != nil {
			t.Fatal(err)
		}

		var st JobStatus
		if code := postJSON(t, api.URL+"/v1/campaigns", spec, &st); code != http.StatusAccepted {
			t.Fatalf("%s: POST /v1/campaigns: %d", spec.Campaign, code)
		}
		waitState(t, api.URL, st.ID, 60*time.Second, StateDone)
		var served struct {
			Result struct {
				Payload json.RawMessage `json:"payload"`
			} `json:"result"`
		}
		getJSON(t, api.URL+"/v1/jobs/"+st.ID, &served)
		if got := compact(t, served.Result.Payload); got != string(want) {
			t.Fatalf("%s: /v1/campaigns payload\n %s\nsingle-node\n %s", spec.Campaign, got, want)
		}

		for _, shards := range []int{1, 4} {
			id := fmt.Sprintf("%s-%d", spec.Campaign, shards)
			var fst FabricJobStatus
			if code := postJSON(t, fab.URL+"/v1/fabric/jobs", FabricSubmit{ID: id, Spec: spec, Shards: shards}, &fst); code != http.StatusAccepted {
				t.Fatalf("%s: POST /v1/fabric/jobs: %d", id, code)
			}
			if opaque := spec.Campaign != "yield"; opaque && len(fst.Shards) != 1 {
				t.Fatalf("%s planned %d shards, want the one opaque span", id, len(fst.Shards))
			}
			deadline := time.Now().Add(60 * time.Second)
			for fst.Phase == fabric.PhaseRunning {
				if time.Now().After(deadline) {
					t.Fatalf("%s still running after 60s", id)
				}
				time.Sleep(10 * time.Millisecond)
				getJSON(t, fab.URL+"/v1/fabric/jobs/"+id, &fst)
			}
			var res struct {
				Payload json.RawMessage `json:"payload"`
			}
			getJSON(t, fab.URL+"/v1/fabric/jobs/"+id+"/result", &res)
			if got := compact(t, res.Payload); got != string(want) {
				t.Fatalf("%s: fabric payload\n %s\nsingle-node\n %s", id, got, want)
			}
		}
	}
}

// Every submission has its own in-process worker, so two long jobs run
// side by side: both make progress while the other is still running.
func TestConcurrentJobsBothProgress(t *testing.T) {
	s := New(context.Background())
	defer s.Close()
	spec := testbench.Spec{Campaign: "yield", Seed: 3, Workers: 1, Chunk: 8,
		Params: map[string]any{"n": 1000000, "threshold": 0.03}}
	a, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		ja, _ := s.Job(a.ID)
		jb, _ := s.Job(b.ID)
		if ja.State != StateRunning || jb.State != StateRunning {
			t.Fatalf("a million-trial job ended early: %s %s", ja.State, jb.State)
		}
		if ja.Progress.Done > 0 && jb.Progress.Done > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no concurrent progress after 30s: %+v and %+v", ja.Progress, jb.Progress)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Cancelling a running million-trial job through the API stops the
// trial counter and returns mccampaign_workers_busy to 0 within a
// second: the in-process worker learns of the cancel on its next
// heartbeat.
func TestCancelStopsTrialsAndWorkers(t *testing.T) {
	_, ts := newTestServer(t)
	_, st := postSpec(t, ts.URL,
		`{"campaign":"yield","seed":3,"workers":2,"chunk":8,"params":{"n":1000000,"threshold":0.03}}`)
	deadline := time.Now().Add(30 * time.Second)
	for {
		var cur JobStatus
		getJSON(t, ts.URL+"/v1/jobs/"+st.ID, &cur)
		if cur.Progress.Done > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job made no progress in 30s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs/"+st.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	cancelled := time.Now()
	last := -1.0
	for {
		time.Sleep(50 * time.Millisecond)
		snap := snapshot(t, ts.URL)
		trials := total(t, snap, "mccampaign_trials_total")
		if total(t, snap, "mccampaign_workers_busy") == 0 && trials == last {
			break
		}
		last = trials
		if time.Since(cancelled) > time.Second {
			t.Fatalf("1s after cancel: trials still moving (%v) or workers busy", trials)
		}
	}
	time.Sleep(200 * time.Millisecond)
	if after := total(t, snapshot(t, ts.URL), "mccampaign_trials_total"); after != last {
		t.Fatalf("trial counter moved from %v to %v after the job stopped", last, after)
	}
}

// The service keeps the newest fabric.MaxRetained finished jobs: older
// ids answer 404, the listing holds the retained ones newest first,
// mcserved_jobs_retained reports the count and
// mcserved_jobs_evicted_total the rest of the finished jobs.
func TestRetainedJobs(t *testing.T) {
	s, ts := newTestServer(t)
	const extra = 3
	for i := 0; i < fabric.MaxRetained+extra; i++ {
		st, err := s.Submit(testbench.Spec{Campaign: "table1"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.coord.Wait(context.Background(), st.ID); err != nil {
			t.Fatal(err)
		}
	}
	jobs := s.Jobs()
	newest, oldest := fmt.Sprintf("job-%d", fabric.MaxRetained+extra), fmt.Sprintf("job-%d", extra+1)
	if len(jobs) != fabric.MaxRetained || jobs[0].ID != newest || jobs[len(jobs)-1].ID != oldest {
		t.Fatalf("listing holds %d jobs from %s to %s, want %d from %s to %s",
			len(jobs), jobs[0].ID, jobs[len(jobs)-1].ID, fabric.MaxRetained, newest, oldest)
	}
	for id, want := range map[string]int{"job-1": http.StatusNotFound, "job-" + fmt.Sprint(extra): http.StatusNotFound, oldest: http.StatusOK} {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET %s: %s, want %d", id, resp.Status, want)
		}
	}
	snap := snapshot(t, ts.URL)
	if v := total(t, snap, "mcserved_jobs_retained"); v != fabric.MaxRetained {
		t.Fatalf("mcserved_jobs_retained = %v, want %d", v, fabric.MaxRetained)
	}
	if v := total(t, snap, "mcserved_jobs_in_flight"); v != 0 {
		t.Fatalf("mcserved_jobs_in_flight = %v with every job finished", v)
	}
	if v := total(t, snap, "mcserved_jobs_evicted_total"); v != extra {
		t.Fatalf("mcserved_jobs_evicted_total = %v, want %d", v, extra)
	}
	if v := total(t, snap, "mcserved_jobs_evicted_total") + total(t, snap, "mcserved_jobs_retained"); v != fabric.MaxRetained+extra {
		t.Fatalf("evicted + retained = %v, want every finished job (%d)", v, fabric.MaxRetained+extra)
	}
	if !strings.HasPrefix(jobs[0].ID, "job-") || jobs[0].Result == nil || jobs[0].Finished == nil {
		t.Fatalf("newest retained job %+v lacks its result", jobs[0])
	}
}
