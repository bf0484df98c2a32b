package fabric

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/campaign"
	"repro/internal/testbench"
)

// Store is the durable half of the fabric: a directory of job
// directories, each holding
//
//	jobs/<id>/job.json      immutable: spec, trial count, shard plan
//	jobs/<id>/log.jsonl     append-only: checkpoints, completions, phase
//	jobs/<id>/snapshot.json compacted state the log replays on top of
//	jobs/<id>/result.json   the finalized Result, once the job is done
//
// Appends go to the log; every compactEvery appends the state is
// written to snapshot.json (atomically, via rename) and the log
// truncated, so replay cost stays bounded however long a campaign runs.
// A process killed mid-append leaves at most one unterminated final
// line, which replay ignores; any other malformation is an error — a
// corrupt store must fail loudly, not resume from fabricated state.
type Store struct {
	dir  string
	mem  bool
	sync bool
}

// StoreOption customizes OpenStore.
type StoreOption func(*Store)

// WithSync makes every log append and snapshot fsync before returning,
// and fsyncs the directory after every rename and job creation so the
// new names are durable too. The default is off: surviving a killed
// process only needs the data to have reached the page cache, and the
// checkpoint-overhead budget (BenchmarkCheckpointOverhead) is measured
// at the default. Turn it on when the failure model includes the whole
// machine losing power; mcserved -store does.
func WithSync(on bool) StoreOption { return func(s *Store) { s.sync = on } }

// compactEvery is how many log appends accumulate before a job's state
// is compacted into snapshot.json.
const compactEvery = 256

// OpenStore opens (creating if needed) a job store rooted at dir.
func OpenStore(dir string, opts ...StoreOption) (*Store, error) {
	s := &Store{dir: dir}
	for _, opt := range opts {
		opt(s)
	}
	if err := os.MkdirAll(s.jobsDir(), 0o755); err != nil {
		return nil, fmt.Errorf("fabric: open store: %w", err)
	}
	return s, nil
}

// NewMemoryStore returns a store that writes nothing: appends only
// update a job's state, a finished job drops its shard blobs and keeps
// no result (the coordinator that finalized it holds the Result), and
// its jobs end with the process — the store behind internal/serve.
func NewMemoryStore() *Store { return &Store{mem: true} }

func (s *Store) jobsDir() string         { return filepath.Join(s.dir, "jobs") }
func (s *Store) jobDir(id string) string { return filepath.Join(s.jobsDir(), id) }

// Jobs lists the ids of every job in the store, sorted.
func (s *Store) Jobs() ([]string, error) {
	if s.mem {
		return nil, nil
	}
	entries, err := os.ReadDir(s.jobsDir())
	if err != nil {
		return nil, fmt.Errorf("fabric: list jobs: %w", err)
	}
	var ids []string
	for _, e := range entries {
		if e.IsDir() {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// jobMeta is the immutable half of a job, written once at creation.
type jobMeta struct {
	ID     string          `json:"id"`
	Spec   testbench.Spec  `json:"spec"`
	Trials int             `json:"trials"`
	Plan   []campaign.Span `json:"plan"`
}

// ShardState is the durable progress of one planned span: the
// accumulator blob covering [Span.Lo, Through), and whether the span
// has completed.
type ShardState struct {
	Span    campaign.Span `json:"span"`
	Through int           `json:"through"`
	Acc     []byte        `json:"acc,omitempty"`
	Done    bool          `json:"done"`
}

// Phase is a job's lifecycle state.
type Phase string

// The job phases. Running jobs accept leases; the other three are
// terminal.
const (
	PhaseRunning   Phase = "running"
	PhaseDone      Phase = "done"
	PhaseFailed    Phase = "failed"
	PhaseCancelled Phase = "cancelled"
)

// JobState is the replayable state of a job: per-shard progress plus
// the lifecycle phase.
type JobState struct {
	Shards  []ShardState `json:"shards"`
	Phase   Phase        `json:"phase"`
	Failure string       `json:"failure,omitempty"`
}

// clone deep-copies the state so callers can never alias the store's.
func (st *JobState) clone() JobState {
	out := JobState{Phase: st.Phase, Failure: st.Failure, Shards: make([]ShardState, len(st.Shards))}
	copy(out.Shards, st.Shards)
	for i := range out.Shards {
		out.Shards[i].Acc = bytes.Clone(out.Shards[i].Acc)
	}
	return out
}

// logRecord is one line of the append-only job log.
type logRecord struct {
	Kind    string `json:"kind"`
	Shard   int    `json:"shard,omitempty"`
	Through int    `json:"through,omitempty"`
	Acc     []byte `json:"acc,omitempty"`
	Msg     string `json:"msg,omitempty"`
}

// Log record kinds.
const (
	recCheckpoint = "checkpoint"
	recShardDone  = "shard_done"
	recDone       = "done"
	recFailed     = "failed"
	recCancelled  = "cancelled"
)

// Job is an open handle on one durable job: the immutable meta plus the
// mutable, log-backed state. Append methods are safe for concurrent
// use; every append that cannot be persisted returns its error and
// leaves the in-memory state unchanged.
type Job struct {
	store *Store
	meta  jobMeta

	mu        sync.Mutex
	state     JobState
	log       *os.File // nil for an in-memory job
	closed    bool
	sinceSnap int
}

// CreateJob creates a new durable job: the plan must partition
// [0, trials) into contiguous ascending spans.
func (s *Store) CreateJob(id string, spec testbench.Spec, trials int, plan []campaign.Span) (*Job, error) {
	if id == "" || id != filepath.Base(id) || id[0] == '.' {
		return nil, fmt.Errorf("fabric: bad job id %q", id)
	}
	if err := validatePlan(trials, plan); err != nil {
		return nil, fmt.Errorf("fabric: job %s: %w", id, err)
	}
	meta := jobMeta{ID: id, Spec: spec, Trials: trials, Plan: plan}
	if s.mem {
		return &Job{store: s, meta: meta, state: freshState(plan)}, nil
	}
	// Mkdir fails on an existing directory, so of two creators of one id
	// (two processes on one store) exactly one gets past this line.
	dir := s.jobDir(id)
	if err := os.Mkdir(dir, 0o755); err != nil {
		if errors.Is(err, os.ErrExist) {
			return nil, fmt.Errorf("fabric: job %s already exists", id)
		}
		return nil, fmt.Errorf("fabric: job %s: %w", id, err)
	}
	if s.sync {
		if err := syncDir(s.jobsDir()); err != nil {
			return nil, fmt.Errorf("fabric: job %s: %w", id, err)
		}
	}
	if err := s.writeFileAtomic(filepath.Join(dir, "job.json"), meta); err != nil {
		return nil, fmt.Errorf("fabric: job %s: %w", id, err)
	}
	j := &Job{store: s, meta: meta, state: freshState(plan)}
	if err := j.openLog(); err != nil {
		return nil, err
	}
	return j, nil
}

// OpenJob reopens an existing job, replaying snapshot and log into the
// in-memory state — the resume path after a kill or restart.
func (s *Store) OpenJob(id string) (*Job, error) {
	if s.mem {
		return nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	dir := s.jobDir(id)
	metaBytes, err := os.ReadFile(filepath.Join(dir, "job.json"))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
		}
		return nil, fmt.Errorf("fabric: job %s: %w", id, err)
	}
	var meta jobMeta
	if err := json.Unmarshal(metaBytes, &meta); err != nil {
		return nil, fmt.Errorf("fabric: job %s: corrupt job.json: %w", id, err)
	}
	if err := validatePlan(meta.Trials, meta.Plan); err != nil {
		return nil, fmt.Errorf("fabric: job %s: corrupt job.json: %w", id, err)
	}
	state := freshState(meta.Plan)
	snapBytes, err := os.ReadFile(filepath.Join(dir, "snapshot.json"))
	switch {
	case err == nil:
		var snap JobState
		if err := json.Unmarshal(snapBytes, &snap); err != nil {
			return nil, fmt.Errorf("fabric: job %s: corrupt snapshot: %w", id, err)
		}
		if err := checkStateAgainstPlan(&snap, meta.Plan); err != nil {
			return nil, fmt.Errorf("fabric: job %s: corrupt snapshot: %w", id, err)
		}
		state = snap
	case !errors.Is(err, os.ErrNotExist):
		return nil, fmt.Errorf("fabric: job %s: %w", id, err)
	}
	logBytes, err := os.ReadFile(filepath.Join(dir, "log.jsonl"))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("fabric: job %s: %w", id, err)
	}
	if err := replayLog(&state, logBytes); err != nil {
		return nil, fmt.Errorf("fabric: job %s: corrupt log: %w", id, err)
	}
	j := &Job{store: s, meta: meta, state: state}
	if err := j.openLog(); err != nil {
		return nil, err
	}
	return j, nil
}

// freshState is the state of a job with no progress.
func freshState(plan []campaign.Span) JobState {
	st := JobState{Phase: PhaseRunning, Shards: make([]ShardState, len(plan))}
	for i, sp := range plan {
		st.Shards[i] = ShardState{Span: sp, Through: sp.Lo}
	}
	return st
}

// validatePlan checks that plan partitions [0, trials) into contiguous
// ascending non-empty spans.
func validatePlan(trials int, plan []campaign.Span) error {
	if trials < 1 {
		return fmt.Errorf("trial count %d", trials)
	}
	if len(plan) == 0 {
		return errors.New("empty shard plan")
	}
	at := 0
	for i, sp := range plan {
		if sp.Lo != at || sp.Hi <= sp.Lo {
			return fmt.Errorf("shard %d span [%d, %d) breaks the partition at %d", i, sp.Lo, sp.Hi, at)
		}
		at = sp.Hi
	}
	if at != trials {
		return fmt.Errorf("plan covers %d of %d trials", at, trials)
	}
	return nil
}

// checkStateAgainstPlan validates a decoded snapshot against the
// immutable plan.
func checkStateAgainstPlan(st *JobState, plan []campaign.Span) error {
	switch st.Phase {
	case PhaseRunning, PhaseDone, PhaseFailed, PhaseCancelled:
	default:
		return fmt.Errorf("unknown phase %q", st.Phase)
	}
	if len(st.Shards) != len(plan) {
		return fmt.Errorf("%d shards, plan has %d", len(st.Shards), len(plan))
	}
	for i, sh := range st.Shards {
		if sh.Span != plan[i] {
			return fmt.Errorf("shard %d span [%d, %d) does not match plan [%d, %d)",
				i, sh.Span.Lo, sh.Span.Hi, plan[i].Lo, plan[i].Hi)
		}
		if sh.Through < sh.Span.Lo || sh.Through > sh.Span.Hi {
			return fmt.Errorf("shard %d progress %d outside [%d, %d]", i, sh.Through, sh.Span.Lo, sh.Span.Hi)
		}
		if sh.Done && sh.Through != sh.Span.Hi {
			return fmt.Errorf("shard %d done at %d of %d", i, sh.Through, sh.Span.Hi)
		}
		if sh.Through > sh.Span.Lo && len(sh.Acc) == 0 {
			return fmt.Errorf("shard %d has progress %d but no accumulator", i, sh.Through)
		}
	}
	return nil
}

// replayLog applies an append-only log to the state. A final line
// without a terminating newline is a write the kill interrupted and is
// ignored; everything else must apply cleanly.
func replayLog(st *JobState, data []byte) error {
	line := 0
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			return nil // unterminated final line: interrupted append
		}
		raw := data[:nl]
		data = data[nl+1:]
		line++
		var rec logRecord
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&rec); err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
		if dec.More() {
			return fmt.Errorf("line %d: trailing data", line)
		}
		if err := applyRecord(st, rec); err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
	}
	return nil
}

// applyRecord folds one log record into the state, rejecting records a
// correct writer could never have produced.
func applyRecord(st *JobState, rec logRecord) error {
	switch rec.Kind {
	case recCheckpoint, recShardDone:
		if rec.Shard < 0 || rec.Shard >= len(st.Shards) {
			return fmt.Errorf("%s for shard %d of %d", rec.Kind, rec.Shard, len(st.Shards))
		}
		sh := &st.Shards[rec.Shard]
		if rec.Kind == recShardDone {
			rec.Through = sh.Span.Hi
		}
		if rec.Through <= sh.Span.Lo || rec.Through > sh.Span.Hi {
			return fmt.Errorf("checkpoint at %d outside shard %d span (%d, %d]", rec.Through, rec.Shard, sh.Span.Lo, sh.Span.Hi)
		}
		if len(rec.Acc) == 0 {
			return fmt.Errorf("%s for shard %d without accumulator", rec.Kind, rec.Shard)
		}
		// Progress may only advance; a checkpoint below the high-water
		// mark would mean the fabric resumed from the wrong blob.
		if rec.Through < sh.Through || (sh.Done && rec.Kind == recCheckpoint) {
			return fmt.Errorf("shard %d progress moved backwards (%d after %d)", rec.Shard, rec.Through, sh.Through)
		}
		sh.Through = rec.Through
		sh.Acc = rec.Acc
		sh.Done = sh.Done || rec.Kind == recShardDone
	case recDone:
		st.Phase = PhaseDone
	case recFailed:
		st.Phase = PhaseFailed
		st.Failure = rec.Msg
	case recCancelled:
		st.Phase = PhaseCancelled
	default:
		return fmt.Errorf("unknown record kind %q", rec.Kind)
	}
	return nil
}

// openLog opens the job's log for appending.
func (j *Job) openLog() error {
	f, err := os.OpenFile(filepath.Join(j.dir(), "log.jsonl"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("fabric: job %s: %w", j.meta.ID, err)
	}
	j.log = f
	return nil
}

func (j *Job) dir() string { return j.store.jobDir(j.meta.ID) }

// ID returns the job's id.
func (j *Job) ID() string { return j.meta.ID }

// Spec returns the job's campaign spec as recorded at creation.
func (j *Job) Spec() testbench.Spec { return j.meta.Spec }

// Trials returns the job's total trial count.
func (j *Job) Trials() int { return j.meta.Trials }

// State returns a deep copy of the job's current state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state.clone()
}

// append validates a record against the current state, persists it, and
// only then applies it in memory — so the in-memory state never gets
// ahead of the disk, and a failed write surfaces without corrupting
// either.
func (j *Job) append(rec logRecord) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("fabric: job %s: store closed", j.meta.ID)
	}
	// Dry-run on a copy first: an invalid append must not reach the log.
	trial := j.state.clone()
	if err := applyRecord(&trial, rec); err != nil {
		return fmt.Errorf("fabric: job %s: %w", j.meta.ID, err)
	}
	if j.store.mem {
		if trial.Phase != PhaseRunning {
			for i := range trial.Shards {
				trial.Shards[i].Acc = nil
			}
		}
		j.state = trial
		return nil
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("fabric: job %s: %w", j.meta.ID, err)
	}
	if _, err := j.log.Write(append(data, '\n')); err != nil {
		return fmt.Errorf("fabric: job %s: append: %w", j.meta.ID, err)
	}
	if j.store.sync {
		if err := j.log.Sync(); err != nil {
			return fmt.Errorf("fabric: job %s: sync: %w", j.meta.ID, err)
		}
	}
	j.state = trial
	j.sinceSnap++
	if j.sinceSnap >= compactEvery {
		if err := j.compactLocked(); err != nil {
			return err
		}
	}
	return nil
}

// compactLocked writes the state to snapshot.json and truncates the
// log. Called with j.mu held.
func (j *Job) compactLocked() error {
	if err := j.store.writeFileAtomic(filepath.Join(j.dir(), "snapshot.json"), j.state); err != nil {
		return fmt.Errorf("fabric: job %s: snapshot: %w", j.meta.ID, err)
	}
	if err := j.log.Truncate(0); err != nil {
		return fmt.Errorf("fabric: job %s: truncate log: %w", j.meta.ID, err)
	}
	if _, err := j.log.Seek(0, 0); err != nil {
		return fmt.Errorf("fabric: job %s: rewind log: %w", j.meta.ID, err)
	}
	j.sinceSnap = 0
	return nil
}

// AppendCheckpoint records a durable checkpoint: acc covers
// [shard.Span.Lo, through).
func (j *Job) AppendCheckpoint(shard, through int, acc []byte) error {
	return j.append(logRecord{Kind: recCheckpoint, Shard: shard, Through: through, Acc: acc})
}

// AppendShardDone records a completed span with its final accumulator.
func (j *Job) AppendShardDone(shard int, acc []byte) error {
	return j.append(logRecord{Kind: recShardDone, Shard: shard, Acc: acc})
}

// AppendCancelled moves the job to its cancelled terminal phase.
func (j *Job) AppendCancelled() error { return j.append(logRecord{Kind: recCancelled}) }

// AppendFailed moves the job to its failed terminal phase.
func (j *Job) AppendFailed(msg string) error {
	return j.append(logRecord{Kind: recFailed, Msg: msg})
}

// AppendDone persists the finalized result and moves the job to done.
func (j *Job) AppendDone(res *testbench.Result) error {
	if !j.store.mem {
		j.mu.Lock()
		err := j.store.writeFileAtomic(filepath.Join(j.dir(), "result.json"), res)
		j.mu.Unlock()
		if err != nil {
			return fmt.Errorf("fabric: job %s: result: %w", j.meta.ID, err)
		}
	}
	return j.append(logRecord{Kind: recDone})
}

// Result reads back the finalized result of a done job.
func (j *Job) Result() (*testbench.Result, error) {
	if j.store.mem {
		return nil, fmt.Errorf("fabric: job %s: an in-memory job keeps no result", j.meta.ID)
	}
	data, err := os.ReadFile(filepath.Join(j.dir(), "result.json"))
	if err != nil {
		return nil, fmt.Errorf("fabric: job %s: %w", j.meta.ID, err)
	}
	res, err := testbench.DecodeResult(data)
	if err != nil {
		return nil, fmt.Errorf("fabric: job %s: %w", j.meta.ID, err)
	}
	return res, nil
}

// Close releases the log handle. Appends after Close fail.
func (j *Job) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.closed = true
	if j.log == nil {
		return nil
	}
	err := j.log.Close()
	j.log = nil
	if err != nil {
		return fmt.Errorf("fabric: job %s: close: %w", j.meta.ID, err)
	}
	return nil
}

// writeFileAtomic writes JSON via a temp file and rename, so readers
// never observe a torn file; with WithSync the data is fsynced before
// the rename commits it, and the directory after.
func (s *Store) writeFileAtomic(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close() // the write error is the one worth reporting
		return errors.Join(err, os.Remove(tmp.Name()))
	}
	if s.sync {
		if err := tmp.Sync(); err != nil {
			_ = tmp.Close()
			return errors.Join(err, os.Remove(tmp.Name()))
		}
	}
	if err := tmp.Close(); err != nil {
		return errors.Join(err, os.Remove(tmp.Name()))
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return errors.Join(err, os.Remove(tmp.Name()))
	}
	if s.sync {
		return syncDir(filepath.Dir(path))
	}
	return nil
}

// syncDir fsyncs a directory, making the names created or renamed in it
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	return errors.Join(d.Sync(), d.Close())
}
