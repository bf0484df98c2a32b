package fabric

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/testbench"
)

// copyTree copies the directory tree at src into dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// storeV1DonePayload is the payload the done job of testdata/store-v1
// finalized to when its store was written.
const storeV1DonePayload = `{"N":64,"ComponentSigma":0.02,"Tolerance":0.05,"Threshold":0.03,"TrueGood":52,"PassCount":2,"Escapes":0,"Overkill":50,"YieldLo":0.008612138346171874,"YieldHi":0.10697291770958312,"DefectLo":0,"DefectHi":0.6576197724933468}`

// TestRecoverStoreV1 pins replay of a store written by an earlier build
// (testdata/store-v1): a done yield job with its result.json, a running
// job with one checkpoint and a torn final log line, and a cancelled
// job. RecoverAll must restore every phase, every shard's progress and
// the done job's payload bytes, and the running job must resume from
// its checkpoint to the single-node payload.
func TestRecoverStoreV1(t *testing.T) {
	dir := t.TempDir()
	copyTree(t, filepath.Join("testdata", "store-v1"), dir)
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(Config{Store: store})
	defer func() {
		if err := c.Close(); err != nil {
			t.Error(err)
		}
	}()
	ctx := context.Background()
	if err := c.RecoverAll(ctx); err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct {
		id      string
		phase   Phase
		through []int
	}{
		{"cancelled", PhaseCancelled, []int{0}},
		{"done-yield", PhaseDone, []int{32, 64}},
		{"running", PhaseRunning, []int{32, 64}},
	} {
		st, err := c.Status(want.id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Phase != want.phase || len(st.Shards) != len(want.through) {
			t.Fatalf("%s recovered as %s with %d shards, want %s with %d", want.id, st.Phase, len(st.Shards), want.phase, len(want.through))
		}
		for i, sh := range st.Shards {
			if sh.Through != want.through[i] {
				t.Fatalf("%s shard %d recovered at %d, want %d", want.id, i, sh.Through, want.through[i])
			}
		}
	}
	res, err := c.Wait(ctx, "done-yield")
	if err != nil {
		t.Fatal(err)
	}
	if got := payloadJSON(t, res); got != storeV1DonePayload {
		t.Fatalf("done job payload\n %s\nwant\n %s", got, storeV1DonePayload)
	}

	drain(t, &Worker{Backend: c, ID: "w0"})
	resumed, err := c.Wait(ctx, "running")
	if err != nil {
		t.Fatal(err)
	}
	single, err := testbench.Run(ctx, resumed.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := payloadJSON(t, resumed), payloadJSON(t, single); got != want {
		t.Fatalf("resumed job payload %s, single-node %s", got, want)
	}
}

// TestSyncedStore: with WithSync every append, snapshot, result, rename
// and job creation is fsynced, and the store round-trips exactly as
// without.
func TestSyncedStore(t *testing.T) {
	s := openTestStore(t, WithSync(true), WithCompactEvery(2))
	j, err := s.CreateJob("j1", testSpec(), 1000, testPlan(t, 1000, 2, 100))
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []func() error{
		func() error { return j.AppendCheckpoint(0, 200, []byte("blob-200")) },
		func() error { return j.AppendShardDone(0, []byte("final-0")) },
		func() error { return j.AppendShardDone(1, []byte("final-1")) },
		func() error { return j.AppendDone(&testbench.Result{Spec: testSpec()}) },
		j.Close,
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	re, err := s.OpenJob("j1")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := re.Close(); err != nil {
			t.Error(err)
		}
	}()
	st := re.State()
	if st.Phase != PhaseDone || string(st.Shards[1].Acc) != "final-1" {
		t.Fatalf("synced store reopened as %+v", st)
	}
	if _, err := re.Result(); err != nil {
		t.Fatal(err)
	}
}
