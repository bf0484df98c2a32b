package testbench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
)

// Spec is the declarative description of one campaign run — the unit the
// registry executes, the CLIs build from flags, and the mcserved HTTP
// service accepts as JSON. A Spec is fully serializable: the same bytes
// produce the same Result on any machine at any worker count.
type Spec struct {
	// Campaign names the registered campaign (see List).
	Campaign string `json:"campaign"`
	// Backend selects the CUT backend ("analytic" or "spice"); empty
	// means analytic. Campaigns that build their own systems (fig4,
	// fig4spice, fig4mc, table1, backends) ignore it.
	Backend string `json:"backend,omitempty"`
	// Seed is the root seed of the campaign's random streams. Campaigns
	// without randomness ignore it.
	Seed uint64 `json:"seed,omitempty"`
	// Workers bounds the campaign worker pool (0 = all CPUs), at most
	// MaxWorkers. Results never depend on it.
	Workers int `json:"workers,omitempty"`
	// Chunk is the trial count per reduction chunk of the streaming
	// campaigns (0 = campaign.DefaultChunk). It is part of the spec — and
	// so of the reproducibility contract — because a non-associative
	// reduction groups floating-point folds by chunk; at any fixed chunk
	// the result is still bit-identical at every worker count.
	Chunk int `json:"chunk,omitempty"`
	// Checkpoint is the trial count between durable checkpoints when the
	// campaign runs under the fabric (0 = campaign.DefaultCheckpoint).
	// Checkpointing observes a run but never changes its result, so —
	// unlike Chunk — the cadence is not part of the reproducibility
	// contract; it only bounds how much work a killed run replays.
	Checkpoint int `json:"checkpoint,omitempty"`
	// Scalar is a retired engine switch and a no-op: every campaign runs
	// on the one signature pipeline, whose results the switch never
	// changed. It still decodes, so stored and submitted specs that set
	// it keep running; the effective spec of a Result records it false.
	Scalar bool `json:"scalar,omitempty"`
	// Params holds the campaign-specific parameters. Accepted forms: nil
	// (registry defaults), the campaign's typed params struct (or a
	// pointer to it), json.RawMessage/[]byte, or any JSON-shaped value
	// such as the map[string]any a decoded HTTP body carries.
	Params any `json:"params,omitempty"`
}

// MaxWorkers bounds the worker pool of one run, whether the spec or
// WithWorkers sets it. Each pool worker grows its own trial scratch —
// about 125 KB on the analytic backend and 145 KB on SPICE for a yield
// trial — so the largest accepted pool keeps its scratch within 64 MiB
// (256 × 145 KB ≈ 37 MB), like the size bounds of the campaign knobs.
const MaxWorkers = 256

// Result is the uniform envelope every campaign run returns: the typed
// payload plus the effective spec (params normalized to their typed,
// fully-populated form), a human rendering, and timing metadata. It
// round-trips through JSON; DecodeResult restores the typed payload.
type Result struct {
	// Spec is the effective spec: the submitted one with Params replaced
	// by the typed, default-filled params struct the campaign actually ran
	// with, so persisting a Result records how to reproduce it.
	Spec Spec `json:"spec"`
	// Payload is the campaign's typed result struct (e.g. *Fig4MC).
	Payload any `json:"payload,omitempty"`
	// Text is the payload's human rendering (Render or CSV), when it has one.
	Text string `json:"text,omitempty"`
	// Elapsed is the wall-clock duration of the run, in nanoseconds.
	Elapsed time.Duration `json:"elapsed_ns"`
	// Workers is the worker bound the run used (0 = all CPUs).
	Workers int `json:"workers"`
}

// runConfig collects the functional options of Run.
type runConfig struct {
	workers    int
	workersSet bool
	progress   func(done, total int)
	meter      campaign.Meter
	sys        *core.System
}

// Option customizes one Run call without touching the serializable Spec.
type Option func(*runConfig)

// WithWorkers overrides the spec's worker-pool bound (0 = all CPUs).
func WithWorkers(n int) Option {
	return func(c *runConfig) { c.workers = n; c.workersSet = true }
}

// WithProgress streams completion counts out of the run: fn is invoked
// with (done, total) as the campaign's current fan-out phase completes
// work — per finished chunk of a streaming reduction, per finished trial
// of a materializing one (campaign.Collect). Within a phase the count
// strictly increases and ends at (total, total). It may be called
// concurrently and must not block; progress observes a run but never
// changes its result.
func WithProgress(fn func(done, total int)) Option {
	return func(c *runConfig) { c.progress = fn }
}

// WithMeter attaches a campaign.Meter to every fan-out of the run —
// streaming reductions chunk by chunk, campaign.Collect trial by trial.
// It is the hook the serve metrics layer uses to count trials (summed
// from ChunkDone) and to observe chunk latency and worker saturation.
// Like WithProgress it is an observer: it may be called concurrently,
// must not block, and never changes the run's result.
func WithMeter(m campaign.Meter) Option {
	return func(c *runConfig) { c.meter = m }
}

// WithSystem pins the system the campaign runs on, bypassing the spec's
// Backend resolution — the hook custom-configured systems use.
func WithSystem(sys *core.System) Option {
	return func(c *runConfig) { c.sys = sys }
}

// Env is the execution environment a campaign implementation receives:
// lazy access to the resolved system plus the configured campaign engine.
type Env struct {
	spec     Spec
	override *core.System
	sys      *core.System
	sysErr   error
	resolved bool
	workers  int
	progress func(done, total int)
	meter    campaign.Meter
}

// System resolves (once) the core.System the spec describes — the pinned
// WithSystem value, or the paper's reference system on the spec backend.
// It never modifies the system it resolves.
func (ev *Env) System() (*core.System, error) {
	if ev.resolved {
		return ev.sys, ev.sysErr
	}
	ev.resolved = true
	if ev.override != nil {
		ev.sys = ev.override
		return ev.sys, nil
	}
	backend := ev.spec.Backend
	if backend == "" {
		backend = core.Backends()[0]
	}
	ev.sys, ev.sysErr = core.SystemForBackend(backend)
	return ev.sys, ev.sysErr
}

// Engine returns the campaign engine every fan-out of this run shares:
// the resolved worker bound, the spec seed, the chunk size, and the
// progress sink.
func (ev *Env) Engine() campaign.Engine {
	return campaign.Engine{
		Workers:    ev.workers,
		Seed:       ev.spec.Seed,
		Chunk:      ev.spec.Chunk,
		Checkpoint: ev.spec.Checkpoint,
		Progress:   ev.progress,
		Meter:      ev.meter,
	}
}

// Seed returns the spec's root seed.
func (ev *Env) Seed() uint64 { return ev.spec.Seed }

// compile resolves a spec against the registry into its definition, its
// execution environment, the effective spec (knobs resolved, Params
// replaced by the typed default-filled struct), and the typed params —
// the preparation Run and Sharder share, so the programmatic, HTTP and
// fabric paths cannot drift in what they accept.
func compile(spec Spec, opts ...Option) (*campaignDef, *Env, Spec, any, error) {
	def, err := lookup(spec.Campaign)
	if err != nil {
		return nil, nil, Spec{}, nil, err
	}
	if err := checkBackend(spec); err != nil {
		return nil, nil, Spec{}, nil, err
	}
	params := def.newParams()
	if err := decodeParams(spec.Params, params); err != nil {
		return nil, nil, Spec{}, nil, fmt.Errorf("testbench: campaign %s: bad params: %w", spec.Campaign, err)
	}
	if err := validateParams(spec.Campaign, params); err != nil {
		return nil, nil, Spec{}, nil, err
	}
	// A negative knob must not slip through with the envelope recording a
	// chunk size the engine silently replaced.
	if spec.Chunk < 0 {
		return nil, nil, Spec{}, nil, fmt.Errorf("testbench: campaign %s: negative chunk %d", spec.Campaign, spec.Chunk)
	}
	if spec.Checkpoint < 0 {
		return nil, nil, Spec{}, nil, fmt.Errorf("testbench: campaign %s: negative checkpoint %d", spec.Campaign, spec.Checkpoint)
	}
	cfg := runConfig{}
	for _, opt := range opts {
		opt(&cfg)
	}
	workers := spec.Workers
	if cfg.workersSet {
		workers = cfg.workers
		spec.Workers = workers
	}
	if workers > MaxWorkers {
		return nil, nil, Spec{}, nil, fmt.Errorf("testbench: campaign %s: %d workers exceeds the %d-worker bound", spec.Campaign, workers, MaxWorkers)
	}
	spec.Scalar = false // a no-op the effective spec must not claim ran
	ev := &Env{spec: spec, override: cfg.sys, workers: workers, progress: cfg.progress, meter: cfg.meter}
	spec.Params = params
	return def, ev, spec, params, nil
}

// Run executes the campaign a spec names through the registry and wraps
// its payload in the uniform Result envelope. Cancelling ctx aborts the
// campaign within one trial's latency, or two where a pair runs (the
// run returns ctx's error). It
// is the one programmatic entry point to every campaign: the CLIs, the
// report, the HTTP service and the fabric all run specs through it (or
// through Sharder, which shares its compile step).
func Run(ctx context.Context, spec Spec, opts ...Option) (*Result, error) {
	def, ev, eff, params, err := compile(spec, opts...)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	payload, err := def.run(ctx, ev, params)
	if err != nil {
		return nil, fmt.Errorf("testbench: campaign %s: %w", spec.Campaign, err)
	}
	return &Result{
		Spec:    eff,
		Payload: payload,
		Text:    renderText(payload),
		Elapsed: time.Since(start),
		Workers: ev.workers,
	}, nil
}

// runAs runs a spec and returns its payload as *R — the typed form of Run
// the report uses.
func runAs[R any](ctx context.Context, spec Spec, opts ...Option) (*R, error) {
	res, err := Run(ctx, spec, opts...)
	if err != nil {
		return nil, err
	}
	p, ok := res.Payload.(*R)
	if !ok {
		return nil, fmt.Errorf("testbench: campaign %s returned %T", spec.Campaign, res.Payload)
	}
	return p, nil
}

// renderText extracts the payload's human rendering when it has one.
func renderText(payload any) string {
	switch v := payload.(type) {
	case interface{ Render() string }:
		return v.Render()
	case interface{ CSV() string }:
		return v.CSV()
	}
	return ""
}
