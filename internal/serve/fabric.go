// fabric.go is the wire layer of the distributed campaign fabric: it
// exposes a fabric.Coordinator over HTTP and gives fabric.Worker an
// HTTP Backend, so mcserved instances on different machines form one
// campaign fabric.
//
// API (JSON everywhere; mounted next to the /v1 job engine):
//
//	POST /v1/fabric/jobs             submit a durable sharded job {id?, spec, shards}
//	GET  /v1/fabric/jobs             ids of every durable job
//	GET  /v1/fabric/jobs/{id}        phase + per-shard progress
//	GET  /v1/fabric/jobs/{id}/result the finalized Result once done
//	POST /v1/fabric/jobs/{id}/cancel revoke every lease and cancel
//	POST /v1/shards/lease            worker pull: next pending shard or 204
//	POST /v1/shards/heartbeat        extend a lease, optionally persisting a checkpoint
//	POST /v1/shards/report           deliver a completed span's accumulator
//	POST /v1/shards/fail             report a deterministic span failure
//
// Lease-protocol errors travel as machine-readable codes so the
// client-side Backend can map them back to the fabric's sentinel
// errors: a worker keyed off ErrLeaseRevoked behaves identically
// in-process and across the wire.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/fabric"
	"repro/internal/testbench"
)

// Fabric serves a fabric.Coordinator over HTTP.
type Fabric struct {
	coord *fabric.Coordinator
}

// NewFabric wraps a coordinator for HTTP serving.
func NewFabric(c *fabric.Coordinator) *Fabric { return &Fabric{coord: c} }

// Coordinator returns the wrapped coordinator.
func (f *Fabric) Coordinator() *fabric.Coordinator { return f.coord }

// Handler mounts the fabric API; route it under /v1/fabric/ and
// /v1/shards/.
func (f *Fabric) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/fabric/jobs", f.handleJobs)
	mux.HandleFunc("/v1/fabric/jobs/", f.handleJob)
	mux.HandleFunc("/v1/shards/lease", f.handleLease)
	mux.HandleFunc("/v1/shards/heartbeat", f.handleHeartbeat)
	mux.HandleFunc("/v1/shards/report", f.handleReport)
	mux.HandleFunc("/v1/shards/fail", f.handleFail)
	return mux
}

// Wire error codes for the fabric's sentinel errors.
const (
	codeUnknownJob   = "unknown_job"
	codeUnknownLease = "unknown_lease"
	codeLeaseRevoked = "lease_revoked"
	codeJobDone      = "job_done"
)

// errorCode maps a fabric error to its wire code and HTTP status.
func errorCode(err error) (string, int) {
	switch {
	case errors.Is(err, fabric.ErrUnknownJob):
		return codeUnknownJob, http.StatusNotFound
	case errors.Is(err, fabric.ErrUnknownLease):
		return codeUnknownLease, http.StatusConflict
	case errors.Is(err, fabric.ErrLeaseRevoked):
		return codeLeaseRevoked, http.StatusConflict
	case errors.Is(err, fabric.ErrJobDone):
		return codeJobDone, http.StatusConflict
	}
	return "", http.StatusBadRequest
}

// codeError reverses errorCode on the client side.
func codeError(code, msg string) error {
	switch code {
	case codeUnknownJob:
		return fmt.Errorf("%w: %s", fabric.ErrUnknownJob, msg)
	case codeUnknownLease:
		return fmt.Errorf("%w: %s", fabric.ErrUnknownLease, msg)
	case codeLeaseRevoked:
		return fmt.Errorf("%w: %s", fabric.ErrLeaseRevoked, msg)
	case codeJobDone:
		return fmt.Errorf("%w: %s", fabric.ErrJobDone, msg)
	}
	return errors.New(msg)
}

// writeFabricError writes the JSON error envelope with its wire code.
func writeFabricError(w http.ResponseWriter, err error) {
	code, status := errorCode(err)
	writeJSON(w, status, map[string]string{"error": err.Error(), "code": code})
}

// FabricSubmit is the body of POST /v1/fabric/jobs. A missing ID is
// assigned from the submission clock.
type FabricSubmit struct {
	ID     string         `json:"id,omitempty"`
	Spec   testbench.Spec `json:"spec"`
	Shards int            `json:"shards"`
}

// ShardStatus is one shard's progress in a job status (accumulator
// blobs stay in the store; the status reports their coverage).
type ShardStatus struct {
	Span    campaign.Span `json:"span"`
	Through int           `json:"through"`
	Done    bool          `json:"done"`
}

// FabricJobStatus is the wire form of a durable job's state.
type FabricJobStatus struct {
	ID      string        `json:"id"`
	Phase   fabric.Phase  `json:"phase"`
	Failure string        `json:"failure,omitempty"`
	Shards  []ShardStatus `json:"shards"`
}

func jobStatus(id string, st fabric.JobState) FabricJobStatus {
	out := FabricJobStatus{ID: id, Phase: st.Phase, Failure: st.Failure, Shards: make([]ShardStatus, len(st.Shards))}
	for i, sh := range st.Shards {
		out.Shards[i] = ShardStatus{Span: sh.Span, Through: sh.Through, Done: sh.Done}
	}
	return out
}

// handleJobs lists durable jobs (GET) and submits new ones (POST).
func (f *Fabric) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, f.coord.Jobs())
	case http.MethodPost:
		var sub FabricSubmit
		if !decodeBody(w, r, &sub, "submission") {
			return
		}
		if sub.ID == "" {
			sub.ID = fmt.Sprintf("fab-%d", time.Now().UnixNano())
		}
		if sub.Shards < 1 {
			sub.Shards = 1
		}
		if err := f.coord.Submit(r.Context(), sub.ID, sub.Spec, sub.Shards); err != nil {
			writeFabricError(w, err)
			return
		}
		st, err := f.coord.Status(sub.ID)
		if err != nil {
			writeFabricError(w, err)
			return
		}
		w.Header().Set("Location", "/v1/fabric/jobs/"+sub.ID)
		writeJSON(w, http.StatusAccepted, jobStatus(sub.ID, st))
	default:
		w.Header().Set("Allow", "GET, POST")
		writeError(w, http.StatusMethodNotAllowed, errors.New("method not allowed"))
	}
}

// handleJob routes /v1/fabric/jobs/{id}[/result|/cancel].
func (f *Fabric) handleJob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/fabric/jobs/")
	id, action, _ := strings.Cut(rest, "/")
	switch {
	case action == "" && r.Method == http.MethodGet:
		st, err := f.coord.Status(id)
		if err != nil {
			writeFabricError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, jobStatus(id, st))
	case action == "result" && r.Method == http.MethodGet:
		st, err := f.coord.Status(id)
		if err != nil {
			writeFabricError(w, err)
			return
		}
		if st.Phase != fabric.PhaseDone {
			writeError(w, http.StatusConflict, fmt.Errorf("job %s is %s, not done", id, st.Phase))
			return
		}
		res, err := f.coord.Wait(r.Context(), id)
		if err != nil {
			writeFabricError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, res)
	case action == "cancel" && r.Method == http.MethodPost:
		if err := f.coord.Cancel(id); err != nil {
			writeFabricError(w, err)
			return
		}
		st, err := f.coord.Status(id)
		if err != nil {
			writeFabricError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, jobStatus(id, st))
	default:
		writeError(w, http.StatusNotFound, fmt.Errorf("no route %s %s", r.Method, r.URL.Path))
	}
}

// leaseRequest is the body of POST /v1/shards/lease.
type leaseRequest struct {
	Worker string `json:"worker"`
}

// shardMessage is the body of heartbeat, report, and fail: the lease
// coordinates plus the message's payload.
type shardMessage struct {
	Job     string `json:"job"`
	Token   string `json:"token"`
	Through int    `json:"through,omitempty"`
	Acc     []byte `json:"acc,omitempty"`
	Msg     string `json:"msg,omitempty"`
}

func requirePost(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		writeError(w, http.StatusMethodNotAllowed, errors.New("method not allowed"))
		return false
	}
	return true
}

// handleLease pulls the next pending shard; 204 means nothing pending.
func (f *Fabric) handleLease(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	var req leaseRequest
	if !decodeBody(w, r, &req, "body") {
		return
	}
	if req.Worker == "" {
		writeError(w, http.StatusBadRequest, errors.New("lease request without a worker id"))
		return
	}
	ls, ok, err := f.coord.Lease(r.Context(), req.Worker)
	if err != nil {
		writeFabricError(w, err)
		return
	}
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, ls)
}

func (f *Fabric) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	var msg shardMessage
	if !decodeBody(w, r, &msg, "body") {
		return
	}
	ls := &fabric.Lease{Job: msg.Job, Token: msg.Token}
	if err := f.coord.Heartbeat(r.Context(), ls, msg.Through, msg.Acc); err != nil {
		writeFabricError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (f *Fabric) handleReport(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	var msg shardMessage
	if !decodeBody(w, r, &msg, "body") {
		return
	}
	ls := &fabric.Lease{Job: msg.Job, Token: msg.Token}
	if err := f.coord.Report(r.Context(), ls, msg.Acc); err != nil {
		writeFabricError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (f *Fabric) handleFail(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	var msg shardMessage
	if !decodeBody(w, r, &msg, "body") {
		return
	}
	ls := &fabric.Lease{Job: msg.Job, Token: msg.Token}
	if err := f.coord.Fail(r.Context(), ls, msg.Msg); err != nil {
		writeFabricError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// HTTPBackend is the client half of the shard protocol: a
// fabric.Backend that talks to a remote coordinator's /v1/shards
// endpoints. Wire error codes map back to the fabric's sentinel
// errors, so fabric.Worker needs no HTTP awareness.
type HTTPBackend struct {
	// Base is the coordinator's base URL, e.g. "http://host:8080".
	Base string
	// Client is the HTTP client; nil selects http.DefaultClient.
	Client *http.Client
}

func (b *HTTPBackend) client() *http.Client {
	if b.Client != nil {
		return b.Client
	}
	return http.DefaultClient
}

// post sends one JSON request and decodes the response into out (out ==
// nil skips decoding); 204 returns noContent == true.
func (b *HTTPBackend) post(ctx context.Context, path string, body, out any) (noContent bool, err error) {
	data, err := json.Marshal(body)
	if err != nil {
		return false, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.Base+path, bytes.NewReader(data))
	if err != nil {
		return false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := b.client().Do(req)
	if err != nil {
		return false, err
	}
	defer func() {
		if cerr := resp.Body.Close(); err == nil && cerr != nil {
			err = cerr
		}
	}()
	if resp.StatusCode == http.StatusNoContent {
		return true, nil
	}
	payload, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes+1))
	if err != nil {
		return false, err
	}
	if len(payload) > maxBodyBytes {
		return false, fmt.Errorf("serve: %s: response body exceeds %d bytes", path, maxBodyBytes)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var envelope struct {
			Error string `json:"error"`
			Code  string `json:"code"`
		}
		if json.Unmarshal(payload, &envelope) == nil && envelope.Error != "" {
			return false, codeError(envelope.Code, envelope.Error)
		}
		return false, fmt.Errorf("serve: %s: %s", path, resp.Status)
	}
	if out != nil {
		if err := json.Unmarshal(payload, out); err != nil {
			return false, fmt.Errorf("serve: %s: decode response: %w", path, err)
		}
	}
	return false, nil
}

// Lease implements fabric.Backend.
func (b *HTTPBackend) Lease(ctx context.Context, workerID string) (*fabric.Lease, bool, error) {
	var ls fabric.Lease
	none, err := b.post(ctx, "/v1/shards/lease", leaseRequest{Worker: workerID}, &ls)
	if err != nil || none {
		return nil, false, err
	}
	return &ls, true, nil
}

// Heartbeat implements fabric.Backend.
func (b *HTTPBackend) Heartbeat(ctx context.Context, ls *fabric.Lease, through int, acc []byte) error {
	_, err := b.post(ctx, "/v1/shards/heartbeat",
		shardMessage{Job: ls.Job, Token: ls.Token, Through: through, Acc: acc}, nil)
	return err
}

// Report implements fabric.Backend.
func (b *HTTPBackend) Report(ctx context.Context, ls *fabric.Lease, acc []byte) error {
	_, err := b.post(ctx, "/v1/shards/report",
		shardMessage{Job: ls.Job, Token: ls.Token, Acc: acc}, nil)
	return err
}

// Fail implements fabric.Backend.
func (b *HTTPBackend) Fail(ctx context.Context, ls *fabric.Lease, msg string) error {
	_, err := b.post(ctx, "/v1/shards/fail",
		shardMessage{Job: ls.Job, Token: ls.Token, Msg: msg}, nil)
	return err
}
