// Package serve is the campaign-as-a-service layer: the HTTP API that
// exposes the testbench campaign registry over the wire, as a view over
// an in-memory fabric coordinator. It is the implementation behind
// cmd/mcserved and the in-process server the examples, tests and the
// mcload replay client drive.
//
// API (JSON everywhere unless noted):
//
//	GET    /v1/campaigns          registry catalogue: names, param schemas, defaults
//	POST   /v1/campaigns          submit a testbench.Spec; 202 + job status
//	GET    /v1/jobs               all jobs, newest first
//	GET    /v1/jobs/{id}          one job: state, progress, result when done
//	GET    /v1/jobs/{id}/events   Server-Sent Events stream of job status until terminal
//	POST   /v1/jobs/{id}/cancel   cancel a running job (DELETE /v1/jobs/{id} works too)
//	GET    /metrics               Prometheus text exposition; ?format=json for the JSON variant
//
// # Job lifecycle
//
// Every job is a one-shard job of the server's fabric coordinator over
// a fabric.NewMemoryStore, and the job's state is the coordinator's
// record: its phase, live progress, created and finished times, and the
// Result. Submit resolves the spec — a bad spec never takes a job id —
// and starts one in-process fabric.Worker per submission, so jobs run
// concurrently; the worker builds the campaign's system (and runs any
// calibration) when it starts the job. The job's spec is the effective
// spec: params default-filled in their typed form. Cancelling through
// the API is fabric.Coordinator.Cancel, which the worker learns on its
// next heartbeat — within a second — and then stops within one trial,
// or two where a pair runs. A job is terminal in exactly one of the states done, failed or
// cancelled; a done job always carries its result and finish time. The
// newest fabric.MaxRetained finished jobs stay queryable; older ones
// answer 404.
//
// # Observability contract
//
// Every Server owns a metrics.Registry (see docs/METRICS.md for the
// families) and instruments its own routes; Handler serves the registry
// at GET /metrics, and co-resident subsystems — the fabric coordinator
// inside mcserved — register into the same registry via Metrics().
// Campaign-level instruments attach through the engine's observer hook
// (testbench.WithMeter): the engine reports events and counts, the
// adapters here timestamp them, so the campaign packages stay
// clock-free and instrumented runs remain bit-identical to bare ones.
// AccessLog adds structured per-request logging (key=value
// or JSON lines) outside the handler chain.
//
// Middleware wrapping Handler must preserve http.Flusher on the
// response writer, or the SSE stream degrades to one buffered flush at
// job completion; AccessLog's wrapper passes Flush through.
package serve
