package testbench

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/biquad"
	"repro/internal/campaign"
	"repro/internal/core"
)

// CheckpointSink receives one durable checkpoint of a sharded campaign
// run: the marshaled accumulator covering every trial of the run's span
// below through (always a chunk boundary). A non-nil error aborts the
// run — a checkpoint that cannot be persisted is a failure, not a
// warning.
type CheckpointSink func(acc []byte, through int) error

// ShardRun is the compiled, sharded form of one campaign spec — the
// surface the distributed fabric drives. Accumulator state crosses its
// boundary only as canonical blobs (the campaign's CheckpointReducer
// codec), so the same ShardRun serves three execution shapes: a durable
// single-node run (full span, checkpoints to the job store), a resumed
// run (init from the last checkpoint), and a leased shard on a worker
// (sub-span, blob reported back to the coordinator).
//
// Bit-identity: a span's blob depends only on (spec, span) — trials
// derive their randomness as pure functions of (seed, trial index) —
// and shard blobs Merge in span order with the exactly associative
// merges these campaigns use, so any chunk-aligned partition of
// [0, Trials) reproduces the single-node accumulator bit for bit.
type ShardRun struct {
	// Spec is the effective spec (knobs resolved, typed default-filled
	// params) — what a durable job records to reproduce the run.
	Spec Spec
	// Trials is the campaign's total trial count; shard plans partition
	// [0, Trials).
	Trials int
	// Run reduces one contiguous trial span, starting from the restored
	// accumulator blob init (nil or empty = fresh) and invoking sink, when
	// non-nil, at the engine's checkpoint cadence. It returns the span's
	// accumulator blob.
	Run func(ctx context.Context, span campaign.Span, init []byte, sink CheckpointSink) ([]byte, error)
	// Merge combines two adjacent accumulator blobs in span order.
	Merge func(into, next []byte) ([]byte, error)
	// Finalize turns the full-range accumulator blob into the campaign's
	// Result envelope (Elapsed is the caller's to fill in — the fabric
	// owns the wall clock of a distributed run).
	Finalize func(acc []byte) (*Result, error)
	// Progress reads the latest progress tick of this form's runs — the
	// (done, total) count of the current fan-out phase, as WithProgress
	// reports it. Sharder always sets it; nil means untracked.
	Progress func() (done, total int)
}

// shardBuilders maps campaign name to the builder of its sharded form:
// the campaigns registered through registerReduction, a single trial
// fan-out whose accumulator merges exactly associatively — integer
// counts, ordered concatenation — so per-shard blobs merge
// bit-identically to the single-node chunk chain. Every other campaign
// compiles to one opaque span (see opaqueShard). Populated from init
// only, read-only after.
var shardBuilders = map[string]func(ctx context.Context, ev *Env, spec Spec, params any) *ShardRun{}

// trialForms is a reduction campaign's per-trial work: one runs trial
// i, and two, when non-nil, runs trials i and i+1 together (see
// campaign.PairTrial).
type trialForms[T any] struct {
	one func(int, *core.TrialScratch) (T, error)
	two campaign.PairTrial[T, *core.TrialScratch]
}

// dieTrials builds both trial forms of a campaign that tests one CUT
// per trial: prep turns trial i into its CUT and what score needs
// besides the NDF, and score turns the NDF, or its error, into the
// result. The two-trial form, set when the system's CUT runs on a
// circuit template (SPICE), runs both NDFs as one NDFOfPairScratch.
func dieTrials[D, T any](sys *core.System, prep func(i int) (core.CUT, D, error), score func(c core.CUT, d D, v float64, err error) (T, error)) trialForms[T] {
	tf := trialForms[T]{one: func(i int, sc *core.TrialScratch) (T, error) {
		c, d, err := prep(i)
		if err != nil {
			var zero T
			return zero, err
		}
		v, err := sys.NDFOfScratch(c, sc)
		return score(c, d, v, err)
	}}
	if _, ok := sys.CUT.(*biquad.SpiceCUT); !ok {
		return tf
	}
	tf.two = func(i int, sc *core.TrialScratch) (r0, r1 T, err0, err1 error) {
		c0, d0, err0 := prep(i)
		c1, d1, err1 := prep(i + 1)
		if err0 != nil || err1 != nil {
			// A die that cannot be built ends the run; trial i runs alone.
			r0, err0 = tf.one(i, sc)
			return r0, r1, err0, err1
		}
		v0, v1, err0, err1 := sys.NDFOfPairScratch(c0, c1, sc)
		r0, err0 = score(c0, d0, v0, err0)
		r1, err1 = score(c1, d1, v1, err1)
		return r0, r1, err0, err1
	}
	return tf
}

// registerReduction registers a campaign that is one checkpointable
// trial fan-out in both its forms from one definition: the registry run
// folds the whole trial range, and Sharder's form runs it span by span
// (see shardExec). trials counts the fan-out from the params alone;
// prepare builds the trial forms and the finalizer, resolving the
// system and any calibration.
func registerReduction[P, R, T, A any](name, summary string, defaults P, red campaign.CheckpointReducer[T, A], trials func(p *P) int,
	prepare func(ctx context.Context, ev *Env, p *P) (trialForms[T], func(A) *R, error)) {
	register(name, summary, defaults, func(ctx context.Context, ev *Env, p *P) (*R, error) {
		tf, finalize, err := prepare(ctx, ev, p)
		if err != nil {
			return nil, err
		}
		acc, err := campaign.ReduceSpanScratch(ctx, ev.Engine(), campaign.Span{Hi: trials(p)}, nil, nil, red.Reducer, core.NewTrialScratch, tf.one, tf.two)
		if err != nil {
			return nil, err
		}
		return finalize(acc), nil
	})
	shardBuilders[name] = func(ctx context.Context, ev *Env, spec Spec, params any) *ShardRun {
		p := params.(*P)
		return shardExec(ctx, ev, spec, trials(p), red, func(ctx context.Context) (trialForms[T], func(A) *R, error) {
			return prepare(ctx, ev, p)
		})
	}
}

// Sharder compiles a spec into its sharded executable form. It is Run's
// spec resolution — lookup, params decoding and validation, knob bounds
// — so the fabric accepts exactly the specs the in-process path does.
// Compiling is cheap: the campaign's system and decision (for yield and
// faults without a threshold, a calibration) are built on the form's
// first Run, under that Run's context, or at Finalize if nothing ran in
// this process. The returned ShardRun's closures are safe for repeated
// and concurrent spans under one process.
func Sharder(ctx context.Context, spec Spec, opts ...Option) (*ShardRun, error) {
	def, ev, eff, params, err := compile(spec, opts...)
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	var done, total int
	observe := ev.progress
	ev.progress = func(d, t int) {
		mu.Lock()
		done, total = d, t
		mu.Unlock()
		if observe != nil {
			observe(d, t)
		}
	}
	var run *ShardRun
	if build, ok := shardBuilders[spec.Campaign]; ok {
		// A Finalize-time build must not fail because the compiling
		// request has since ended.
		run = build(context.WithoutCancel(ctx), ev, eff, params)
	} else {
		run = opaqueShard(def, ev, eff, params)
	}
	run.Progress = func() (int, int) {
		mu.Lock()
		defer mu.Unlock()
		return done, total
	}
	return run, nil
}

// shardExec bridges a typed CheckpointReducer to the blob-level ShardRun
// surface: spans run through campaign.ReduceSpanScratch with the codec
// applied at the boundary, merges and finalization unmarshal first and
// remarshal after. prepare builds the trial and finalizer once, on the
// first Run or Finalize that succeeds in building them (a cancelled
// build is retried by the next call); buildCtx serves Finalize.
func shardExec[T, A, R any](buildCtx context.Context, ev *Env, spec Spec, n int, red campaign.CheckpointReducer[T, A],
	prepare func(ctx context.Context) (trialForms[T], func(A) *R, error)) *ShardRun {
	var (
		mu       sync.Mutex
		trial    trialForms[T]
		finalize func(A) *R
	)
	built := func(ctx context.Context) (trialForms[T], func(A) *R, error) {
		mu.Lock()
		defer mu.Unlock()
		if trial.one == nil {
			t, f, err := prepare(ctx)
			if err != nil {
				return trialForms[T]{}, nil, fmt.Errorf("testbench: campaign %s: %w", spec.Campaign, err)
			}
			trial, finalize = t, f
		}
		return trial, finalize, nil
	}
	eng := ev.Engine()
	return &ShardRun{
		Spec:   spec,
		Trials: n,
		Run: func(ctx context.Context, span campaign.Span, init []byte, sink CheckpointSink) ([]byte, error) {
			if span.Lo < 0 || span.Hi < span.Lo || span.Hi > n {
				return nil, fmt.Errorf("span [%d, %d) outside the %d-trial campaign", span.Lo, span.Hi, n)
			}
			var initAcc *A
			if len(init) > 0 {
				a, err := red.Unmarshal(init)
				if err != nil {
					return nil, err
				}
				initAcc = &a
			}
			trial, _, err := built(ctx)
			if err != nil {
				return nil, err
			}
			var ckpt campaign.CheckpointFunc[A]
			if sink != nil {
				ckpt = func(acc A, through int) error {
					blob, err := red.Marshal(acc)
					if err != nil {
						return err
					}
					return sink(blob, through)
				}
			}
			acc, err := campaign.ReduceSpanScratch(ctx, eng, span, initAcc, ckpt, red.Reducer, core.NewTrialScratch, trial.one, trial.two)
			if err != nil {
				return nil, err
			}
			return red.Marshal(acc)
		},
		Merge: func(into, next []byte) ([]byte, error) {
			a, err := red.Unmarshal(into)
			if err != nil {
				return nil, err
			}
			b, err := red.Unmarshal(next)
			if err != nil {
				return nil, err
			}
			return red.Marshal(red.Reducer.Merge(a, b))
		},
		Finalize: func(blob []byte) (*Result, error) {
			acc, err := red.Unmarshal(blob)
			if err != nil {
				return nil, err
			}
			_, finalize, err := built(buildCtx)
			if err != nil {
				return nil, err
			}
			payload := finalize(acc)
			return &Result{
				Spec:    spec,
				Payload: payload,
				Text:    renderText(payload),
				Workers: ev.workers,
			}, nil
		},
	}
}

// opaqueShard compiles a campaign without a sharded form into one
// opaque span [0, 1): Run executes the whole campaign and returns its
// encoded Result as the span's blob, and Finalize decodes it. There is
// nothing to merge or checkpoint, so the fabric runs such a job as one
// span whatever shard count it was submitted with.
func opaqueShard(def *campaignDef, ev *Env, spec Spec, params any) *ShardRun {
	var mu sync.Mutex // one Env, one run at a time
	return &ShardRun{
		Spec:   spec,
		Trials: 1,
		Run: func(ctx context.Context, span campaign.Span, _ []byte, _ CheckpointSink) ([]byte, error) {
			if span != (campaign.Span{Lo: 0, Hi: 1}) {
				return nil, fmt.Errorf("span [%d, %d): campaign %s runs as the one span [0, 1)", span.Lo, span.Hi, spec.Campaign)
			}
			mu.Lock()
			defer mu.Unlock()
			payload, err := def.run(ctx, ev, params)
			if err != nil {
				return nil, fmt.Errorf("testbench: campaign %s: %w", spec.Campaign, err)
			}
			return json.Marshal(&Result{Spec: spec, Payload: payload, Text: renderText(payload), Workers: ev.workers})
		},
		Merge: func(_, _ []byte) ([]byte, error) {
			return nil, fmt.Errorf("testbench: campaign %s runs as one span; there is nothing to merge", spec.Campaign)
		},
		Finalize: DecodeResult,
	}
}
