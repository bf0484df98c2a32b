// Package campaign is the shared parallel Monte-Carlo trial engine. Every
// statistical study in the repository — the Fig. 4 process-variation
// envelope, the noise detection and resolution sweeps, the component
// fault campaign, the production yield simulation, the Fig. 8 deviation
// sweep — is a batch of independent trials, and this package runs such a
// batch across a bounded worker pool while keeping the results
// bit-identical at any worker count.
//
// # Determinism
//
// Results are a pure function of (root seed, spec, chunk size) — never
// of the worker count, the scheduler, or the machine:
//
//   - each trial draws randomness only from its own substream, derived
//     as a pure function of (root seed, trial index) via Engine.Stream
//     (or pre-derived serially by the caller before fan-out);
//   - trial results fold in index order within a chunk and chunks merge
//     in index order, so output order is the trial order regardless of
//     completion order;
//   - the first error is reported by trial index, not by wall-clock
//     arrival.
//
// The package itself is clock-free and draws no global randomness; the
// mclint detrand analyzer machine-checks that, here and in every
// closure handed to the engine.
//
// # Cancellation reach
//
// Every entry point takes a context.Context and stops dispatching new
// trials as soon as it is done, returning ctx.Err() after the in-flight
// trials drain — a cancelled campaign aborts within one trial's latency
// and leaks no goroutines. The fabric's lease revocation rides exactly
// this path: coordinator → worker → span context → trial loop.
//
// # Execution modes and durability
//
// One engine, ReduceSpanScratch (span.go), runs every fan-out; the other
// entry points are thin forms of it. Reduce/ReduceScratch stream:
// workers fold trial results into per-chunk accumulators merged in
// chunk-index order, so memory stays O(workers + chunk) at any trial
// count (see reduce.go). ReduceSpan/ReduceSpanScratch add a contiguous
// trial span with a restored accumulator prefix and a checkpoint sink on
// chunk boundaries — the durable, shardable mode the distributed fabric
// runs, where a resumed or sharded reduction replays the exact fold
// chain of an uninterrupted one. Collect materializes every trial result
// in trial order — O(trials) memory, for campaigns that need per-trial
// output — as an ordered-append reduction over single-trial chunks.
//
// # Observation
//
// Engine.Progress (per chunk; per trial under Collect) and
// Engine.Meter (pool size, chunk fold start/done events) expose a run
// to dashboards and the metrics layer. Both are strictly observers:
// they carry no clock into the engine and can never affect results, so
// an instrumented run is bit-identical to a bare one.
package campaign
