package campaign

// Meter observes the streaming reduction engine's execution — the hook
// instrumentation layers (internal/serve's metrics adapter) attach
// through Engine.Meter. The engine itself is clock-free by contract
// (the detrand invariant), so it reports only events and counts; a
// meter implementation timestamps them on its own side.
//
// Calls may arrive concurrently from several workers. Implementations
// must be safe for concurrent use, must not block, and must not affect
// results: a meter observes a run exactly like Progress does, so
// enabling one preserves the engine's bit-identity guarantees (pinned
// by TestMeterDoesNotAffectResults).
type Meter interface {
	// ReduceStart opens a reduction: the effective worker-pool size and
	// the span's trial count. Called once per run of any entry point
	// (Collect included), before any chunk starts.
	ReduceStart(workers, trials int)
	// ChunkStart marks a worker beginning to fold chunk (a global,
	// trial-0-aligned chunk index). The interval to the matching
	// ChunkDone is the chunk's fold latency; the number of started but
	// unfinished chunks is the engine's live worker saturation.
	ChunkStart(chunk int)
	// ChunkDone marks chunk's fold completing (successfully or at the
	// trial that failed/cancelled) with the number of trials folded —
	// summed over a run, the exact count of trials it executed.
	ChunkDone(chunk, trials int)
}

// nopMeter is the Meter the engine uses when none is configured.
type nopMeter struct{}

func (nopMeter) ReduceStart(int, int) {}
func (nopMeter) ChunkStart(int)       {}
func (nopMeter) ChunkDone(int, int)   {}
