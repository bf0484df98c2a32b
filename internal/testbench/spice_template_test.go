package testbench

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/biquad"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/ndf"
	"repro/internal/wave"
)

// rebuildCUT serves every output through SpiceCUT.RebuildOutput, the
// rebuild-per-trial TransientSolver oracle the circuit templates are
// pinned against. It hides OutputScratch, so core calls Output for
// every trial, and Perturb re-wraps its results, so every deviated or
// faulty CUT a campaign derives rebuilds too.
type rebuildCUT struct{ core.CUT }

func (r rebuildCUT) Output(stim *wave.Multitone, out biquad.Output) (wave.Waveform, error) {
	return r.CUT.(*biquad.SpiceCUT).RebuildOutput(stim, out)
}

func (r rebuildCUT) Perturb(dev core.Deviation) (core.CUT, error) {
	c, err := r.CUT.Perturb(dev)
	if err != nil {
		return nil, err
	}
	return rebuildCUT{c}, nil
}

// templateTestSystem builds a SPICE-backed reference system at a
// reduced scan resolution, its trials served by the circuit templates
// or, with rebuild, by rebuildCUT.
func templateTestSystem(t *testing.T, rebuild bool, obs core.Observation) *core.System {
	t.Helper()
	ref := core.Default()
	var cut core.CUT
	cut, err := biquad.NewSpiceCUTFromParams(ref.Golden())
	if err != nil {
		t.Fatal(err)
	}
	if rebuild {
		cut = rebuildCUT{cut}
	}
	sys, err := core.NewSystem(ref.Stimulus, cut, ref.Bank, ref.Capture)
	if err != nil {
		t.Fatal(err)
	}
	sys.ScanN = 1024
	sys.Observe = obs
	return sys
}

// TestSpiceTemplateCampaignBitIdentity is the end-to-end contract of the
// trial-template engine: full fault-table and yield campaigns on the
// SPICE backend produce byte-identical payloads on the templates and on
// the rebuild oracle (rebuildCUT), for both observations, at 1, 4 and 8
// workers.
func TestSpiceTemplateCampaignBitIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("SPICE campaign comparison is slower")
	}
	ctx := context.Background()
	dec := ndf.Decision{Threshold: 0.02}
	faults := DefaultFaultSet()
	for _, obs := range []core.Observation{core.ObserveLP, core.ObserveBP} {
		var wantFaults *FaultTable
		var wantYield *Yield
		for _, workers := range []int{1, 4, 8} {
			eng := campaign.Engine{Workers: workers, Seed: 9001}
			tmplSys := templateTestSystem(t, false, obs)
			rbldSys := templateTestSystem(t, true, obs)

			ft, err := runFaultTable(ctx, tmplSys, dec, faults, eng)
			if err != nil {
				t.Fatalf("obs %v workers %d: template fault table: %v", obs, workers, err)
			}
			ftRef, err := runFaultTable(ctx, rbldSys, dec, faults, eng)
			if err != nil {
				t.Fatalf("obs %v workers %d: rebuild fault table: %v", obs, workers, err)
			}
			if !reflect.DeepEqual(ft, ftRef) {
				t.Fatalf("obs %v workers %d: fault table differs between template and rebuild paths\n template: %+v\n rebuild:  %+v",
					obs, workers, ft, ftRef)
			}
			if wantFaults == nil {
				wantFaults = ft
			} else if !reflect.DeepEqual(ft, wantFaults) {
				t.Fatalf("obs %v: fault table at %d workers differs from 1 worker", obs, workers)
			}

			yt, err := runYield(ctx, tmplSys, dec, 48, 0.02, 0.05, eng)
			if err != nil {
				t.Fatalf("obs %v workers %d: template yield: %v", obs, workers, err)
			}
			ytRef, err := runYield(ctx, rbldSys, dec, 48, 0.02, 0.05, eng)
			if err != nil {
				t.Fatalf("obs %v workers %d: rebuild yield: %v", obs, workers, err)
			}
			if !reflect.DeepEqual(yt, ytRef) {
				t.Fatalf("obs %v workers %d: yield differs between template and rebuild paths\n template: %+v\n rebuild:  %+v",
					obs, workers, yt, ytRef)
			}
			if wantYield == nil {
				wantYield = yt
			} else if !reflect.DeepEqual(yt, wantYield) {
				t.Fatalf("obs %v: yield at %d workers differs from 1 worker", obs, workers)
			}
		}
	}
}

// TestSpicePairsShardAndResumeBitIdentical pins the paired SPICE trials
// across execution shapes: yield and fault-table specs on the SPICE
// backend, at chunk size 7 so that pairs start at even and at odd
// indices and every odd chunk ends in a one-lane trial, run as 1-, 2-
// and 4-shard plans and resumed from every checkpoint, must all finalize
// to the payload of a one-worker run on the rebuild oracle (rebuildCUT,
// whose trials never pair).
func TestSpicePairsShardAndResumeBitIdentical(t *testing.T) {
	ctx := context.Background()
	thr := 0.02
	for _, c := range []struct {
		spec  Spec
		plans [][]int
	}{
		{Spec{Campaign: "yield", Seed: 5, Chunk: 7, Checkpoint: 7, Params: YieldParams{N: 45, ComponentSigma: 0.03, Tol: 0.05, Threshold: &thr}},
			[][]int{{0, 45}, {0, 21, 45}, {0, 14, 21, 35, 45}}},
		{Spec{Campaign: "faults", Chunk: 7, Checkpoint: 7, Params: FaultsParams{Tol: 0.05, Threshold: &thr}},
			[][]int{{0, 16}, {0, 7, 16}, {0, 7, 14, 16}}},
	} {
		ref, err := Run(ctx, c.spec, WithSystem(templateTestSystem(t, true, core.ObserveLP)), WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		want := payloadJSON(t, ref)
		sr, err := Sharder(ctx, c.spec, WithSystem(templateTestSystem(t, false, core.ObserveLP)), WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		finalized := func(what string, blob []byte) {
			t.Helper()
			res, err := sr.Finalize(blob)
			if err != nil {
				t.Fatal(err)
			}
			if got := payloadJSON(t, res); !bytes.Equal(got, want) {
				t.Fatalf("%s %s differs from the rebuild oracle:\n  got:    %s\n  oracle: %s", c.spec.Campaign, what, got, want)
			}
		}
		for _, cuts := range c.plans {
			var merged []byte
			for s := 0; s+1 < len(cuts); s++ {
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
			finalized(fmt.Sprintf("plan %v", cuts), merged)
		}
		type ck struct {
			blob    []byte
			through int
		}
		var cks []ck
		if _, err := sr.Run(ctx, campaign.Span{Lo: 0, Hi: sr.Trials}, nil, func(acc []byte, through int) error {
			cks = append(cks, ck{bytes.Clone(acc), through})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(cks) < 2 {
			t.Fatalf("%s: %d checkpoints", c.spec.Campaign, len(cks))
		}
		for _, k := range cks {
			blob, err := sr.Run(ctx, campaign.Span{Lo: k.through, Hi: sr.Trials}, k.blob, nil)
			if err != nil {
				t.Fatal(err)
			}
			finalized(fmt.Sprintf("resumed at %d", k.through), blob)
		}
	}
}
