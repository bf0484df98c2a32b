// Package fabric is the campaign job system: durable jobs,
// checkpoint/resume, and sharded execution across mcserved instances.
// The same coordinator, over a memory store, runs mcserved's
// /v1/campaigns jobs in process (internal/serve).
//
// It layers three pieces on the streaming campaign engine:
//
//   - a durable job Store (store.go): every job lives in its own
//     directory as an immutable job.json, an append-only JSON log of
//     checkpoints and shard completions, and a compacted snapshot, so a
//     killed process reopens the store and resumes from the last
//     checkpoint instead of trial 0. Every write error surfaces — a
//     checkpoint that cannot be persisted fails the run. NewMemoryStore
//     is the same store with nothing written, for jobs that need not
//     outlive the process.
//   - a Coordinator (coordinator.go): splits a campaign spec into
//     contiguous chunk-aligned trial spans, leases them to workers with
//     a TTL, requeues expired leases from their last reported
//     checkpoint, and merges per-shard accumulator blobs in shard-index
//     order once all spans complete. It keeps the newest MaxRetained
//     finished jobs queryable and evicts the oldest-finished beyond
//     that, whatever its store.
//   - a Worker (worker.go): pulls leases from a Backend — the
//     Coordinator directly in-process, or an HTTP client against a
//     remote coordinator — runs each span through the campaign's
//     sharded form, heartbeats while it works, and reports the span's
//     accumulator blob. An in-process worker without Compile runs the
//     coordinator's own compiled form. Every registered campaign has a
//     form: yield and faults shard by trial span, the rest run as one
//     opaque span whose blob is the encoded Result.
//
// # Bit-identity
//
// Bit-identity is the design invariant: trials derive their randomness
// as pure functions of (seed, trial index), checkpoints land only on
// chunk boundaries, and shard accumulators merge with the exactly
// associative merges the shardable campaigns use — so a resumed,
// sharded, or twice-interrupted run finalizes to the same bits as an
// uninterrupted single-node one.
//
// # Lease lifecycle
//
// A shard is exactly one of: pending, leased, or done. Lease tokens are
// single-holder — requeuing a shard (TTL expiry, job cancel) issues a
// new token, and every message carrying the old one fails with
// ErrUnknownLease, which a worker treats as an order to abandon the
// span. Cancel is the one cancellation path: a worker learns of it on
// its next heartbeat (every LeaseTTL/3), in process or over HTTP.
// Expiry is lazy: stale leases are requeued at the next lease,
// heartbeat or report that inspects the job, always from the shard's
// last persisted checkpoint, never from trial 0.
//
// # Observability
//
// Config.Metrics attaches an instrument set (see Metrics and
// docs/METRICS.md): lease grant/expiry counters, checkpoint byte
// volume, shard completions, finalize merge latency, and scrape-time
// gauges for active leases and heartbeat staleness. All timing uses the
// coordinator's injectable clock, and instruments only observe the
// control plane — an instrumented job finalizes to the same bits as an
// uninstrumented one.
package fabric
