package testbench

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/campaign"
)

// payloadJSON canonicalizes a result payload for bit-level comparison.
func payloadJSON(t *testing.T, res *Result) []byte {
	t.Helper()
	data, err := json.Marshal(res.Payload)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSharderYieldBitIdentical pins the fabric's core contract on the
// yield campaign: chunk-aligned shards run independently (even at
// different worker counts) and merged in span order finalize to the
// exact payload of the single-node run.
func TestSharderYieldBitIdentical(t *testing.T) {
	ctx := context.Background()
	const chunk = 128
	spec := Spec{
		Campaign: "yield",
		Seed:     42,
		Chunk:    chunk,
		Params:   YieldParams{N: 600, ComponentSigma: 0.03, Tol: 0.05},
	}
	single, err := Run(ctx, spec, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	want := payloadJSON(t, single)

	sr, err := Sharder(ctx, spec, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if sr.Trials != 600 {
		t.Fatalf("Trials = %d, want 600", sr.Trials)
	}
	cuts := []int{0, 2 * chunk, 3 * chunk, 600}
	var merged []byte
	for s := 0; s+1 < len(cuts); s++ {
		// Each shard on its own worker bound: results must not depend on it.
		blob, err := sr.Run(ctx, campaign.Span{Lo: cuts[s], Hi: cuts[s+1]}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if merged == nil {
			merged = blob
		} else if merged, err = sr.Merge(merged, blob); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sr.Finalize(merged)
	if err != nil {
		t.Fatal(err)
	}
	if got := payloadJSON(t, res); !bytes.Equal(got, want) {
		t.Fatalf("sharded payload differs from single-node:\n  sharded: %s\n  single:  %s", got, want)
	}
}

// TestSharderYieldResumeBitIdentical pins checkpoint/resume through the
// blob codec: cut a run at a durable checkpoint, restore the blob as
// init for the rest of the span, and land on the single-node payload.
func TestSharderYieldResumeBitIdentical(t *testing.T) {
	ctx := context.Background()
	spec := Spec{
		Campaign:   "yield",
		Seed:       7,
		Chunk:      64,
		Checkpoint: 128,
		Params:     YieldParams{N: 500, ComponentSigma: 0.03, Tol: 0.05},
	}
	sr, err := Sharder(ctx, spec, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	type ck struct {
		blob    []byte
		through int
	}
	var cks []ck
	full, err := sr.Run(ctx, campaign.Span{Lo: 0, Hi: 500}, nil, func(acc []byte, through int) error {
		cks = append(cks, ck{bytes.Clone(acc), through})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// 8 chunks of 64 (last partial) at cadence 2 chunks: checkpoints at
	// 128, 256, 384.
	if len(cks) != 3 {
		t.Fatalf("%d checkpoints, want 3", len(cks))
	}
	fullRes, err := sr.Finalize(full)
	if err != nil {
		t.Fatal(err)
	}
	want := payloadJSON(t, fullRes)
	for _, c := range cks {
		resumed, err := sr.Run(ctx, campaign.Span{Lo: c.through, Hi: 500}, c.blob, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sr.Finalize(resumed)
		if err != nil {
			t.Fatal(err)
		}
		if got := payloadJSON(t, res); !bytes.Equal(got, want) {
			t.Fatalf("resume from %d differs from uninterrupted:\n  resumed: %s\n  full:    %s", c.through, got, want)
		}
	}
}

// TestSharderFaultsBitIdentical covers the ordered-concatenation
// accumulator: fault cases sharded mid-list merge back into the exact
// single-node table.
func TestSharderFaultsBitIdentical(t *testing.T) {
	ctx := context.Background()
	spec := Spec{Campaign: "faults", Chunk: 4}
	single, err := Run(ctx, spec, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	want := payloadJSON(t, single)
	sr, err := Sharder(ctx, spec, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	mid := (sr.Trials / 2 / 4) * 4 // chunk-aligned midpoint
	a, err := sr.Run(ctx, campaign.Span{Lo: 0, Hi: mid}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sr.Run(ctx, campaign.Span{Lo: mid, Hi: sr.Trials}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := sr.Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sr.Finalize(merged)
	if err != nil {
		t.Fatal(err)
	}
	if got := payloadJSON(t, res); !bytes.Equal(got, want) {
		t.Fatalf("sharded fault table differs from single-node:\n  sharded: %s\n  single:  %s", got, want)
	}
}

func TestSharderRejects(t *testing.T) {
	ctx := context.Background()
	// A campaign without a sharded form compiles to one opaque span.
	fig4 := Spec{Campaign: "fig4", Params: Fig4Params{Points: 5}}
	opaque, err := Sharder(ctx, fig4)
	if err != nil {
		t.Fatalf("campaign without a sharded form rejected: %v", err)
	}
	if opaque.Trials != 1 {
		t.Fatalf("opaque form has %d trials, want one span of 1", opaque.Trials)
	}
	if _, err := opaque.Run(ctx, campaign.Span{Lo: 0, Hi: 2}, nil, nil); err == nil {
		t.Fatal("opaque form ran a span other than [0, 1)")
	}
	if _, err := Sharder(ctx, Spec{Campaign: "nope"}); err == nil {
		t.Fatal("unknown campaign accepted")
	}
	if _, err := Sharder(ctx, Spec{Campaign: "yield", Checkpoint: -1, Params: YieldParams{N: 10, ComponentSigma: 0.02, Tol: 0.05}}); err == nil {
		t.Fatal("negative checkpoint accepted")
	}
	sr, err := Sharder(ctx, Spec{Campaign: "yield", Params: YieldParams{N: 100, ComponentSigma: 0.02, Tol: 0.05}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Run(ctx, campaign.Span{Lo: 0, Hi: 101}, nil, nil); err == nil {
		t.Fatal("span past the campaign accepted")
	}
	if _, err := sr.Run(ctx, campaign.Span{Lo: 0, Hi: 50}, []byte("garbage"), nil); err == nil {
		t.Fatal("malformed init blob accepted")
	}
}

// TestSharderOpaqueBitIdentical: a campaign without a sharded form runs
// as one opaque span whose blob is the encoded Result, and finalizes to
// the payload and text of the in-process run.
func TestSharderOpaqueBitIdentical(t *testing.T) {
	ctx := context.Background()
	spec := Spec{Campaign: "fig4mc", Seed: 7, Params: Fig4MCParams{Monitor: 2, Dies: 12, Cols: 9}}
	single, err := Run(ctx, spec, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	sr, err := Sharder(ctx, spec, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := sr.Run(ctx, campaign.Span{Lo: 0, Hi: sr.Trials}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sr.Finalize(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := payloadJSON(t, res), payloadJSON(t, single); !bytes.Equal(got, want) {
		t.Fatalf("opaque payload differs from the in-process run:\n  opaque: %s\n  single: %s", got, want)
	}
	if res.Text != single.Text {
		t.Fatal("opaque result text differs from the in-process run")
	}
	if done, total := sr.Progress(); done != 12 || total != 12 {
		t.Fatalf("opaque form's progress %d/%d, want 12/12", done, total)
	}
}

// TestSharderBuildsOnFirstUse: compiling resolves the spec only. A yield
// spec without a threshold compiles under a cancelled context — so no
// calibration ran — and its first Run builds the system and decision
// under the Run's own context.
func TestSharderBuildsOnFirstUse(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	spec := Spec{Campaign: "yield", Seed: 3, Chunk: 32, Params: YieldParams{N: 64, ComponentSigma: 0.02, Tol: 0.05}}
	sr, err := Sharder(cancelled, spec)
	if err != nil {
		t.Fatalf("compiling calibrated: %v", err)
	}
	if _, err := sr.Run(cancelled, campaign.Span{Lo: 0, Hi: 64}, nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("first Run under a cancelled context: %v, want the build cancelled", err)
	}
	ctx := context.Background()
	blob, err := sr.Run(ctx, campaign.Span{Lo: 0, Hi: 64}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sr.Finalize(blob)
	if err != nil {
		t.Fatal(err)
	}
	single, err := Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := payloadJSON(t, res), payloadJSON(t, single); !bytes.Equal(got, want) {
		t.Fatalf("payload after a cancelled build differs:\n  got:  %s\n  want: %s", got, want)
	}
}
