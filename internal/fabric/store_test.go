package fabric

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/testbench"
)

func testSpec() testbench.Spec {
	return testbench.Spec{Campaign: "yield", Seed: 7, Chunk: 64, Checkpoint: 128}
}

func testPlan(t *testing.T, trials, shards, chunk int) []campaign.Span {
	t.Helper()
	plan, err := PlanShards(trials, shards, chunk)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func openTestStore(t *testing.T, opts ...StoreOption) *Store {
	t.Helper()
	s, err := OpenStore(t.TempDir(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPlanShards(t *testing.T) {
	cases := []struct {
		trials, shards, chunk int
		want                  []campaign.Span
	}{
		{1000, 4, 100, []campaign.Span{{Lo: 0, Hi: 300}, {Lo: 300, Hi: 600}, {Lo: 600, Hi: 800}, {Lo: 800, Hi: 1000}}},
		{250, 2, 100, []campaign.Span{{Lo: 0, Hi: 200}, {Lo: 200, Hi: 250}}},
		{50, 8, 100, []campaign.Span{{Lo: 0, Hi: 50}}},
		{300, 3, 100, []campaign.Span{{Lo: 0, Hi: 100}, {Lo: 100, Hi: 200}, {Lo: 200, Hi: 300}}},
	}
	for _, c := range cases {
		got, err := PlanShards(c.trials, c.shards, c.chunk)
		if err != nil {
			t.Fatalf("PlanShards(%d, %d, %d): %v", c.trials, c.shards, c.chunk, err)
		}
		if len(got) != len(c.want) {
			t.Fatalf("PlanShards(%d, %d, %d) = %v, want %v", c.trials, c.shards, c.chunk, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("PlanShards(%d, %d, %d) = %v, want %v", c.trials, c.shards, c.chunk, got, c.want)
			}
		}
		// Every plan must satisfy the store's partition contract.
		if err := validatePlan(c.trials, got); err != nil {
			t.Fatalf("PlanShards(%d, %d, %d) fails validatePlan: %v", c.trials, c.shards, c.chunk, err)
		}
	}
	for _, c := range []struct{ trials, shards int }{{0, 2}, {-5, 2}, {100, 0}} {
		if _, err := PlanShards(c.trials, c.shards, 100); err == nil {
			t.Fatalf("PlanShards(%d, %d) accepted", c.trials, c.shards)
		}
	}
}

func TestStoreCreateReopenRoundTrip(t *testing.T) {
	s := openTestStore(t)
	plan := testPlan(t, 1000, 3, 100)
	job, err := s.CreateJob("j1", testSpec(), 1000, plan)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.AppendCheckpoint(0, 200, []byte("acc-0-200")); err != nil {
		t.Fatal(err)
	}
	if err := job.AppendCheckpoint(0, 300, []byte("acc-0-300")); err != nil {
		t.Fatal(err)
	}
	if err := job.AppendShardDone(1, []byte("acc-1")); err != nil {
		t.Fatal(err)
	}
	if err := job.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := s.OpenJob("j1")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if re.Trials() != 1000 || re.Spec().Campaign != "yield" || len(re.meta.Plan) != 3 {
		t.Fatalf("meta did not round-trip: %d trials, %q, %d shards", re.Trials(), re.Spec().Campaign, len(re.meta.Plan))
	}
	st := re.State()
	if st.Phase != PhaseRunning {
		t.Fatalf("phase %s after reopen", st.Phase)
	}
	if st.Shards[0].Through != 300 || !bytes.Equal(st.Shards[0].Acc, []byte("acc-0-300")) || st.Shards[0].Done {
		t.Fatalf("shard 0 state %+v", st.Shards[0])
	}
	if !st.Shards[1].Done || st.Shards[1].Through != 700 || !bytes.Equal(st.Shards[1].Acc, []byte("acc-1")) {
		t.Fatalf("shard 1 state %+v", st.Shards[1])
	}
	if st.Shards[2].Through != 700 || st.Shards[2].Done {
		t.Fatalf("shard 2 state %+v", st.Shards[2])
	}

	ids, err := s.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != "j1" {
		t.Fatalf("Jobs() = %v", ids)
	}
}

func TestStoreResultRoundTrip(t *testing.T) {
	s := openTestStore(t)
	job, err := s.CreateJob("j1", testSpec(), 100, testPlan(t, 100, 1, 100))
	if err != nil {
		t.Fatal(err)
	}
	if err := job.AppendShardDone(0, []byte("acc")); err != nil {
		t.Fatal(err)
	}
	res := &testbench.Result{Spec: testSpec(), Text: "the rendering", Workers: 2}
	if err := job.AppendDone(res); err != nil {
		t.Fatal(err)
	}
	if err := job.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := s.OpenJob("j1")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if got := re.State().Phase; got != PhaseDone {
		t.Fatalf("phase %s after done", got)
	}
	back, err := re.Result()
	if err != nil {
		t.Fatal(err)
	}
	if back.Text != res.Text || back.Workers != res.Workers || back.Spec.Campaign != "yield" {
		t.Fatalf("result did not round-trip: %+v", back)
	}
}

func TestStoreCompaction(t *testing.T) {
	s := openTestStore(t, WithSync(true))
	plan := testPlan(t, 2000, 2, 100)
	job, err := s.CreateJob("j1", testSpec(), 2000, plan)
	if err != nil {
		t.Fatal(err)
	}
	// Compactions after compactEvery and 2·compactEvery appends, one
	// record since.
	const appends = 2*compactEvery + 1
	for through := 1; through <= appends; through++ {
		if err := job.AppendCheckpoint(0, through, []byte(strconv.Itoa(through))); err != nil {
			t.Fatal(err)
		}
	}
	dir := filepath.Join(s.dir, "jobs", "j1")
	if _, err := os.Stat(filepath.Join(dir, "snapshot.json")); err != nil {
		t.Fatalf("no snapshot after %d appends: %v", appends, err)
	}
	logBytes, err := os.ReadFile(filepath.Join(dir, "log.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(logBytes, []byte("\n")); n != 1 {
		t.Fatalf("log holds %d records after compaction, want 1", n)
	}
	if err := job.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := s.OpenJob("j1")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	st := re.State()
	if st.Shards[0].Through != appends || string(st.Shards[0].Acc) != strconv.Itoa(appends) {
		t.Fatalf("state after compacted reopen: %+v", st.Shards[0])
	}
}

func TestStoreIgnoresUnterminatedFinalLine(t *testing.T) {
	s := openTestStore(t)
	job, err := s.CreateJob("j1", testSpec(), 1000, testPlan(t, 1000, 2, 100))
	if err != nil {
		t.Fatal(err)
	}
	if err := job.AppendCheckpoint(0, 200, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if err := job.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a kill mid-append: a torn record with no newline.
	logPath := filepath.Join(s.dir, "jobs", "j1", "log.jsonl")
	f, err := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"kind":"checkpoint","shard":0,"thr`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := s.OpenJob("j1")
	if err != nil {
		t.Fatalf("torn final line rejected: %v", err)
	}
	defer func() {
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if got := re.State().Shards[0].Through; got != 200 {
		t.Fatalf("through %d after torn tail, want the last complete checkpoint at 200", got)
	}
}

func TestStoreRejectsCorruptStores(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(t *testing.T, dir string)
		want    string
	}{
		{"garbage log line", func(t *testing.T, dir string) {
			t.Helper()
			appendFile(t, filepath.Join(dir, "log.jsonl"), "not json\n")
		}, "corrupt log"},
		{"unknown record kind", func(t *testing.T, dir string) {
			t.Helper()
			appendFile(t, filepath.Join(dir, "log.jsonl"), `{"kind":"promote"}`+"\n")
		}, "corrupt log"},
		{"checkpoint outside span", func(t *testing.T, dir string) {
			t.Helper()
			appendFile(t, filepath.Join(dir, "log.jsonl"), `{"kind":"checkpoint","shard":0,"through":999,"acc":"YQ=="}`+"\n")
		}, "corrupt log"},
		{"regressing checkpoint", func(t *testing.T, dir string) {
			t.Helper()
			appendFile(t, filepath.Join(dir, "log.jsonl"),
				`{"kind":"checkpoint","shard":0,"through":400,"acc":"YQ=="}`+"\n"+
					`{"kind":"checkpoint","shard":0,"through":200,"acc":"YQ=="}`+"\n")
		}, "backwards"},
		{"corrupt snapshot", func(t *testing.T, dir string) {
			t.Helper()
			writeFile(t, filepath.Join(dir, "snapshot.json"), "{")
		}, "corrupt snapshot"},
		{"snapshot breaking the plan", func(t *testing.T, dir string) {
			t.Helper()
			writeFile(t, filepath.Join(dir, "snapshot.json"), `{"shards":[],"phase":"running"}`)
		}, "corrupt snapshot"},
		{"corrupt meta", func(t *testing.T, dir string) {
			t.Helper()
			writeFile(t, filepath.Join(dir, "job.json"), "nope")
		}, "corrupt job.json"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := openTestStore(t)
			job, err := s.CreateJob("j1", testSpec(), 500, testPlan(t, 500, 1, 100))
			if err != nil {
				t.Fatal(err)
			}
			if err := job.Close(); err != nil {
				t.Fatal(err)
			}
			dir := filepath.Join(s.dir, "jobs", "j1")
			c.corrupt(t, dir)
			_, err = s.OpenJob("j1")
			if err == nil {
				t.Fatal("corrupt store opened cleanly")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestStoreRejectsBadCreates(t *testing.T) {
	s := openTestStore(t)
	plan := testPlan(t, 100, 1, 100)
	for _, id := range []string{"", ".", "..", "a/b", ".hidden"} {
		if _, err := s.CreateJob(id, testSpec(), 100, plan); err == nil {
			t.Fatalf("job id %q accepted", id)
		}
	}
	badPlans := [][]campaign.Span{
		nil,
		{{Lo: 0, Hi: 50}},                      // short of the trial count
		{{Lo: 10, Hi: 100}},                    // gap at the start
		{{Lo: 0, Hi: 60}, {Lo: 50, Hi: 100}},   // overlap
		{{Lo: 0, Hi: 100}, {Lo: 100, Hi: 100}}, // empty span
	}
	for i, p := range badPlans {
		if _, err := s.CreateJob("jx", testSpec(), 100, p); err == nil {
			t.Fatalf("bad plan %d accepted", i)
		}
	}
	if _, err := s.CreateJob("dup", testSpec(), 100, plan); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateJob("dup", testSpec(), 100, plan); err == nil {
		t.Fatal("duplicate job id accepted")
	}
}

func TestStoreRejectsBadAppends(t *testing.T) {
	s := openTestStore(t)
	job, err := s.CreateJob("j1", testSpec(), 1000, testPlan(t, 1000, 2, 100))
	if err != nil {
		t.Fatal(err)
	}
	if err := job.AppendCheckpoint(0, 300, []byte("a")); err != nil {
		t.Fatal(err)
	}
	bad := []error{
		job.AppendCheckpoint(5, 100, []byte("a")), // no such shard
		job.AppendCheckpoint(0, 200, []byte("a")), // regresses
		job.AppendCheckpoint(0, 600, []byte("a")), // beyond the span
		job.AppendCheckpoint(1, 700, nil),         // no accumulator
		job.AppendCheckpoint(0, 0, []byte("a")),   // no progress
		job.AppendShardDone(-1, []byte("a")),      // no such shard
		job.AppendShardDone(0, nil),               // no accumulator
	}
	for i, err := range bad {
		if err == nil {
			t.Fatalf("bad append %d accepted", i)
		}
	}
	// None of the rejected appends may have moved the state.
	st := job.State()
	if st.Shards[0].Through != 300 || st.Shards[1].Through != 500 || st.Shards[0].Done {
		t.Fatalf("rejected appends mutated state: %+v", st.Shards)
	}
	// A checkpoint after shard completion must be rejected too.
	if err := job.AppendShardDone(0, []byte("final")); err != nil {
		t.Fatal(err)
	}
	if err := job.AppendCheckpoint(0, 500, []byte("late")); err == nil {
		t.Fatal("checkpoint after shard_done accepted")
	}
	if err := job.Close(); err != nil {
		t.Fatal(err)
	}
	if err := job.AppendCheckpoint(1, 600, []byte("a")); err == nil {
		t.Fatal("append after Close accepted")
	}
}

func appendFile(t *testing.T, path, text string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(text); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func writeFile(t *testing.T, path, text string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
}
