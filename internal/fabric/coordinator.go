package fabric

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/testbench"
)

// Lease is one shard assignment: the job and span to run, the restored
// progress to resume from, and the token that authenticates heartbeats
// and the final report. Tokens are single-holder: requeuing a shard
// issues a new token and every message carrying the old one fails with
// ErrUnknownLease, so a worker that lost its lease (TTL expiry, job
// cancel) learns it on its next heartbeat and stops.
type Lease struct {
	Job     string         `json:"job"`
	Shard   int            `json:"shard"`
	Span    campaign.Span  `json:"span"`
	Through int            `json:"through"`
	Acc     []byte         `json:"acc,omitempty"`
	Spec    testbench.Spec `json:"spec"`
	Token   string         `json:"token"`
	// TTL is how long the lease stays valid without a heartbeat; the
	// worker heartbeats at a fraction of it.
	TTL time.Duration `json:"ttl_ns"`
}

// Backend is the coordinator surface a Worker drives: lease a shard,
// heartbeat it (optionally carrying a checkpoint), report it complete.
// The Coordinator implements it directly for in-process workers (which
// then run the coordinator's own compiled form; see Worker); the serve
// package's HTTP client implements it for remote ones.
type Backend interface {
	// Lease returns the next pending shard, or ok == false when nothing
	// is pending right now (the worker polls again later).
	Lease(ctx context.Context, workerID string) (lease *Lease, ok bool, err error)
	// Heartbeat extends the lease. A non-nil acc persists a checkpoint
	// covering [lease.Span.Lo, through) along the way. ErrLeaseRevoked
	// and ErrUnknownLease order the worker to abandon the span.
	Heartbeat(ctx context.Context, lease *Lease, through int, acc []byte) error
	// Report delivers the span's final accumulator blob.
	Report(ctx context.Context, lease *Lease, acc []byte) error
	// Fail reports that the span's trials errored; the coordinator fails
	// the whole job (a trial error is deterministic — retrying the span
	// would fail the same way).
	Fail(ctx context.Context, lease *Lease, msg string) error
}

// jobRun is the coordinator's in-memory view of one job.
type jobRun struct {
	job *Job
	// sharded is the running job's compiled form, which holds a whole
	// System; nil once the job is terminal.
	sharded  *testbench.ShardRun
	pending  []int             // shard indices awaiting a lease, ascending
	leases   map[string]*lease // token -> active lease
	start    time.Time
	finished time.Time         // zero while running
	progress func() (int, int) // the compiled form's Progress, kept when the form is dropped
	done     chan struct{}     // closed on any terminal phase
	res      *testbench.Result // finalized in this process, for Wait
	err      error             // terminal error (failed phase), for Wait
}

// lease is the coordinator-side record of an issued Lease.
type lease struct {
	shard    int
	deadline time.Time
	lastBeat time.Time // grant or latest heartbeat; feeds the staleness gauge
}

// Coordinator owns the fabric's control plane: it plans jobs, issues
// and expires leases, persists every checkpoint and completion to the
// store, merges finished shards in shard-index order, and finalizes the
// result. It keeps at most MaxRetained finished jobs, evicting the
// oldest-finished first. All methods are safe for concurrent use.
type Coordinator struct {
	store    *Store
	compile  CompileFunc
	leaseTTL time.Duration
	now      func() time.Time
	metrics  *Metrics // nil-safe; see Metrics

	mu   sync.Mutex
	jobs map[string]*jobRun
	// reserved holds the ids a Submit or Resume is still opening: taken
	// under mu together with the check against jobs, moved into jobs by
	// adopt, dropped by releaseOnError on failure. Only reserve reads it,
	// so a job being opened is invisible to Lease, Jobs, Info and Count.
	reserved map[string]bool
	finished []string // ids of the retained terminal jobs, oldest-finished first
	running  []string // ids of the running jobs, ascending: what Lease walks
	evicted  int      // finished jobs dropped past MaxRetained
	seq      int      // lease token counter
}

// MaxRetained is how many finished jobs a coordinator keeps queryable.
// Past it the oldest-finished job is evicted: its handle is closed and
// its id answers ErrUnknownJob. A durable job stays in the store, and a
// restarted coordinator adopts the newest MaxRetained finished ones.
const MaxRetained = 1024

// MaxShards bounds the shard count of one job. Every span of the plan
// is written into the job's metadata and tracked as a lease, so the
// bound keeps one submission from writing an unbounded job.json;
// 1024 shards is far more parallelism than a campaign's chunk count
// rewards.
const MaxShards = 1024

// NewCoordinator assembles a coordinator over a durable store.
func NewCoordinator(cfg Config) *Coordinator {
	c := &Coordinator{
		store:    cfg.Store,
		compile:  cfg.Compile,
		leaseTTL: cfg.LeaseTTL,
		now:      cfg.Now,
		metrics:  cfg.Metrics,
		jobs:     map[string]*jobRun{},
		reserved: map[string]bool{},
	}
	if c.compile == nil {
		c.compile = defaultCompile
	}
	if c.leaseTTL <= 0 {
		c.leaseTTL = DefaultLeaseTTL
	}
	if c.now == nil {
		c.now = time.Now
	}
	c.metrics.observeCoordinator(c)
	return c
}

// Submit plans a new job over the spec's sharded form, persists it, and
// queues its shards for leasing. shards bounds the partition width (the
// planner may use fewer; see PlanShards) and may not exceed MaxShards.
// Of several concurrent submissions of one id, exactly one succeeds.
func (c *Coordinator) Submit(ctx context.Context, id string, spec testbench.Spec, shards int) (err error) {
	if !c.reserve(id) {
		return fmt.Errorf("fabric: job %s already exists", id)
	}
	defer c.releaseOnError(id, &err)
	if shards > MaxShards {
		return fmt.Errorf("fabric: job %s: %d shards exceeds the %d-shard bound", id, shards, MaxShards)
	}
	sharded, err := c.compile(ctx, spec)
	if err != nil {
		return err
	}
	plan, err := PlanShards(sharded.Trials, shards, spec.Chunk)
	if err != nil {
		return err
	}
	job, err := c.store.CreateJob(id, sharded.Spec, sharded.Trials, plan)
	if err != nil {
		return err
	}
	c.adopt(job, sharded)
	return nil
}

// Resume reopens a stored job after a restart and requeues every
// incomplete shard from its last checkpoint. Terminal jobs are adopted
// without queueing or compiling (their results stay readable).
// Already-open jobs, and jobs another call is opening, are left
// untouched.
func (c *Coordinator) Resume(ctx context.Context, id string) (err error) {
	if !c.reserve(id) {
		return nil
	}
	defer c.releaseOnError(id, &err)
	job, err := c.store.OpenJob(id)
	if err != nil {
		return err
	}
	var sharded *testbench.ShardRun
	if job.State().Phase == PhaseRunning {
		if sharded, err = c.compile(ctx, job.Spec()); err != nil {
			return fmt.Errorf("fabric: job %s: recompile: %w", id, err)
		}
		if sharded.Trials != job.Trials() {
			return fmt.Errorf("fabric: job %s: spec resolves to %d trials, store says %d", id, sharded.Trials, job.Trials())
		}
	}
	c.adopt(job, sharded)
	return nil
}

// reserve claims id for a job about to be opened, failing when the
// coordinator already holds the id or another call has claimed it. The
// check and the claim are one step under c.mu; compiling and disk I/O
// run after it, outside the lock.
func (c *Coordinator) reserve(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.jobs[id]; ok || c.reserved[id] {
		return false
	}
	c.reserved[id] = true
	return true
}

// releaseOnError drops id's reservation when the Submit or Resume that
// took it failed (*err != nil), so the id can be used again; on success
// adopt has already replaced it with the job.
func (c *Coordinator) releaseOnError(id string, err *error) {
	if *err == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.reserved, id)
}

// RecoverAll resumes every job in the store — the one call a restarted
// coordinator process makes.
func (c *Coordinator) RecoverAll(ctx context.Context) error {
	ids, err := c.store.Jobs()
	if err != nil {
		return err
	}
	for _, id := range ids {
		if err := c.Resume(ctx, id); err != nil {
			return err
		}
	}
	return nil
}

// adopt installs an opened job into the control plane in place of its
// reservation, queueing its incomplete shards.
func (c *Coordinator) adopt(job *Job, sharded *testbench.ShardRun) {
	r := &jobRun{
		job:     job,
		sharded: sharded,
		leases:  map[string]*lease{},
		start:   c.now(),
		done:    make(chan struct{}),
	}
	if sharded != nil {
		r.progress = sharded.Progress
	}
	st := job.State()
	complete := false
	c.mu.Lock()
	delete(c.reserved, job.ID())
	c.jobs[job.ID()] = r
	if st.Phase == PhaseRunning {
		at, _ := slices.BinarySearch(c.running, job.ID())
		c.running = slices.Insert(c.running, at, job.ID())
		for i, sh := range st.Shards {
			if !sh.Done {
				r.pending = append(r.pending, i)
			}
		}
		// Decided under the lock: once it is released, a polling
		// worker's Lease may already be taking shards off r.pending.
		complete = len(r.pending) == 0
	} else {
		if st.Phase == PhaseFailed {
			r.err = fmt.Errorf("fabric: job %s failed: %s", job.ID(), st.Failure)
		}
		c.retireLocked(r)
	}
	c.mu.Unlock()
	// A recovered job whose shards had all completed may still lack its
	// merged result (killed between last report and finalize).
	if complete {
		c.finalize(r)
	}
}

// run looks up a job's control record.
func (c *Coordinator) run(id string) (*jobRun, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	return r, nil
}

// Lease implements Backend: hand out the next pending shard across all
// running jobs, lowest job id and shard index first. Expired leases are
// requeued lazily here — their shards come back resumable from the last
// persisted checkpoint.
func (c *Coordinator) Lease(ctx context.Context, workerID string) (*Lease, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	for _, id := range c.running {
		r := c.jobs[id]
		c.expireLocked(r, now)
		if len(r.pending) == 0 {
			continue
		}
		shard := r.pending[0]
		r.pending = r.pending[1:]
		c.seq++
		token := fmt.Sprintf("%s.%d.%d", workerID, shard, c.seq)
		r.leases[token] = &lease{shard: shard, deadline: now.Add(c.leaseTTL), lastBeat: now}
		c.metrics.leaseGranted()
		st := r.job.State()
		sh := st.Shards[shard]
		return &Lease{
			Job:     id,
			Shard:   shard,
			Span:    sh.Span,
			Through: sh.Through,
			Acc:     sh.Acc,
			Spec:    r.job.Spec(),
			Token:   token,
			TTL:     c.leaseTTL,
		}, true, nil
	}
	return nil, false, nil
}

// expireLocked requeues every lease of r whose deadline has passed.
// Called with c.mu held. Expired tokens are processed in sorted order
// so the requeue sequence is deterministic.
func (c *Coordinator) expireLocked(r *jobRun, now time.Time) {
	var dead []string
	for token, l := range r.leases {
		if now.After(l.deadline) {
			dead = append(dead, token)
		}
	}
	sort.Strings(dead)
	for _, token := range dead {
		r.pending = insertSorted(r.pending, r.leases[token].shard)
		delete(r.leases, token)
		c.metrics.leaseExpired()
	}
}

// checkLease resolves a token to its active lease record.
func (c *Coordinator) checkLease(r *jobRun, token string) (*lease, error) {
	st := r.job.State()
	if st.Phase != PhaseRunning {
		return nil, fmt.Errorf("%w: job %s is %s", ErrLeaseRevoked, r.job.ID(), st.Phase)
	}
	l, ok := r.leases[token]
	if !ok {
		return nil, ErrUnknownLease
	}
	return l, nil
}

// Heartbeat implements Backend: extend the lease and, when the worker
// piggybacks a checkpoint, persist it so an expiry later resumes from
// here rather than the span start.
func (c *Coordinator) Heartbeat(ctx context.Context, ls *Lease, through int, acc []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	r, err := c.run(ls.Job)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	c.expireLocked(r, now)
	l, err := c.checkLease(r, ls.Token)
	if err != nil {
		return err
	}
	if len(acc) > 0 {
		if err := r.job.AppendCheckpoint(l.shard, through, acc); err != nil {
			return err
		}
		c.metrics.checkpoint(len(acc))
	}
	l.deadline = now.Add(c.leaseTTL)
	l.lastBeat = now
	return nil
}

// Report implements Backend: record the span's final accumulator,
// release the lease, and — when it was the last — merge and finalize.
func (c *Coordinator) Report(ctx context.Context, ls *Lease, acc []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	r, err := c.run(ls.Job)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.expireLocked(r, c.now())
	l, err := c.checkLease(r, ls.Token)
	if err != nil {
		c.mu.Unlock()
		return err
	}
	if err := r.job.AppendShardDone(l.shard, acc); err != nil {
		c.mu.Unlock()
		return err
	}
	c.metrics.shardDone()
	delete(r.leases, ls.Token)
	last := len(r.pending) == 0 && len(r.leases) == 0
	c.mu.Unlock()
	if last {
		c.finalize(r)
	}
	return nil
}

// Fail implements Backend: a shard's trials errored, which is
// deterministic, so the job fails as a whole and every other lease is
// revoked.
func (c *Coordinator) Fail(ctx context.Context, ls *Lease, msg string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	r, err := c.run(ls.Job)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.checkLease(r, ls.Token); err != nil {
		return err
	}
	return c.terminateLocked(r, PhaseFailed, msg)
}

// Cancel revokes every lease of the job and moves it to its cancelled
// phase: in-flight workers learn on their next heartbeat (every
// LeaseTTL/3) and cancel their span contexts — the coordinator → lease
// → worker ctx flow, in process and across the wire alike.
func (c *Coordinator) Cancel(id string) error {
	r, err := c.run(id)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if r.job.State().Phase != PhaseRunning {
		return fmt.Errorf("%w: %s", ErrJobDone, id)
	}
	return c.terminateLocked(r, PhaseCancelled, "")
}

// terminateLocked persists a terminal phase, drops all leases and
// pending work (retireLocked drops the leases), and wakes waiters.
// Called with c.mu held.
func (c *Coordinator) terminateLocked(r *jobRun, phase Phase, msg string) error {
	var err error
	if phase == PhaseFailed {
		err = r.job.AppendFailed(msg)
	} else {
		err = r.job.AppendCancelled()
	}
	if err != nil {
		return err
	}
	r.pending = nil
	if phase == PhaseFailed {
		r.err = fmt.Errorf("fabric: job %s failed: %s", r.job.ID(), msg)
	}
	c.retireLocked(r)
	return nil
}

// retireLocked completes r's move to a terminal phase: it stamps the
// finish time, drops the compiled form (a whole System) and the lease
// map, takes r off the running index, wakes waiters, and evicts the
// oldest-finished job past MaxRetained. Called with c.mu held.
func (c *Coordinator) retireLocked(r *jobRun) {
	r.finished = c.now()
	r.sharded = nil
	r.leases = nil
	if at, ok := slices.BinarySearch(c.running, r.job.ID()); ok {
		c.running = slices.Delete(c.running, at, at+1)
	}
	close(r.done)
	c.finished = append(c.finished, r.job.ID())
	for len(c.finished) > MaxRetained {
		old := c.jobs[c.finished[0]]
		delete(c.jobs, c.finished[0])
		c.finished = c.finished[1:]
		c.evicted++
		// Every append already surfaced its own error and the log is
		// unbuffered, so closing an evicted job's handle loses nothing.
		_ = old.job.Close()
	}
}

// finalize merges the shard blobs in shard-index order, finalizes the
// result, and persists it. Merge order is the partition order, so the
// distributed accumulator equals the single-node chunk chain bit for
// bit.
func (c *Coordinator) finalize(r *jobRun) {
	c.mu.Lock()
	sharded := r.sharded
	c.mu.Unlock()
	if sharded == nil {
		return // cancelled between its last report and this merge
	}
	st := r.job.State()
	var merged []byte
	var err error
	mergeStart := c.now()
	for i, sh := range st.Shards {
		if i == 0 {
			merged = sh.Acc
			continue
		}
		if merged, err = sharded.Merge(merged, sh.Acc); err != nil {
			break
		}
	}
	c.metrics.mergeObserved(c.now().Sub(mergeStart).Seconds())
	var res *testbench.Result
	if err == nil {
		if res, err = sharded.Finalize(merged); err == nil {
			res.Elapsed = c.now().Sub(r.start)
		}
	}
	// The phase, the Result and the finish time change together under
	// c.mu, so no reader sees a done job without its result.
	c.mu.Lock()
	defer c.mu.Unlock()
	if r.job.State().Phase != PhaseRunning {
		return // cancelled during the merge
	}
	if err == nil {
		err = r.job.AppendDone(res)
	}
	if err != nil {
		// Failing to merge or persist the result is terminal; surface it
		// through Wait and the durable phase rather than dropping it.
		if ferr := c.terminateLocked(r, PhaseFailed, err.Error()); ferr != nil {
			r.err = fmt.Errorf("%w (and persisting the failure also failed: %v)", err, ferr)
			c.retireLocked(r)
		}
		return
	}
	r.res = res
	c.retireLocked(r)
}

// JobInfo is the coordinator's record of one job: its durable phase
// plus what the coordinator tracks in memory.
type JobInfo struct {
	Spec    testbench.Spec // the effective spec the job was planned from
	Phase   Phase
	Failure string
	// Done and Total are the latest progress tick of the job's compiled
	// form, which an in-process Worker runs; zero for jobs run elsewhere.
	Done, Total int
	Created     time.Time
	Finished    time.Time // zero while running
	// Result is set once the job is done, if it was finalized in this
	// process; a job recovered already done reads it back through Wait.
	Result *testbench.Result
}

// Info returns the job's record.
func (c *Coordinator) Info(id string) (JobInfo, error) {
	c.mu.Lock()
	r, ok := c.jobs[id]
	if !ok {
		c.mu.Unlock()
		return JobInfo{}, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	st := r.job.State()
	info := JobInfo{Spec: r.job.Spec(), Phase: st.Phase, Failure: st.Failure, Created: r.start, Finished: r.finished, Result: r.res}
	progress := r.progress
	c.mu.Unlock()
	if progress != nil {
		info.Done, info.Total = progress()
	}
	return info, nil
}

// Count reports how many jobs the coordinator holds: running ones, and
// finished ones retained for queries (at most MaxRetained). evicted is
// how many finished jobs it has dropped past MaxRetained since it was
// created, so retained + evicted counts every job it saw finish.
func (c *Coordinator) Count() (running, retained, evicted int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.jobs) - len(c.finished), len(c.finished), c.evicted
}

// compiled returns a running job's compiled form, or nil.
func (c *Coordinator) compiled(id string) *testbench.ShardRun {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r, ok := c.jobs[id]; ok {
		return r.sharded
	}
	return nil
}

// Status returns the job's durable state.
func (c *Coordinator) Status(id string) (JobState, error) {
	r, err := c.run(id)
	if err != nil {
		return JobState{}, err
	}
	return r.job.State(), nil
}

// Wait blocks until the job reaches a terminal phase and returns its
// finalized result (or the failure/cancellation).
func (c *Coordinator) Wait(ctx context.Context, id string) (*testbench.Result, error) {
	r, err := c.run(id)
	if err != nil {
		return nil, err
	}
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-r.done:
	}
	if r.err != nil {
		return nil, r.err
	}
	st := r.job.State()
	switch st.Phase {
	case PhaseDone:
		// The in-process finalize kept the Result; jobs adopted already
		// done (a restart after completion) decode it from the store.
		if r.res != nil {
			return r.res, nil
		}
		return r.job.Result()
	case PhaseCancelled:
		return nil, fmt.Errorf("fabric: job %s cancelled", id)
	case PhaseFailed:
		return nil, fmt.Errorf("fabric: job %s failed: %s", id, st.Failure)
	}
	return nil, fmt.Errorf("fabric: job %s woke in phase %s", id, st.Phase)
}

// Jobs lists the ids the coordinator currently holds, sorted.
func (c *Coordinator) Jobs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := make([]string, 0, len(c.jobs))
	for id := range c.jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Close closes every open job handle, in job-id order so the surfaced
// first error is deterministic.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := make([]string, 0, len(c.jobs))
	for id := range c.jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var first error
	for _, id := range ids {
		if err := c.jobs[id].job.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// insertSorted inserts v into ascending-sorted s, keeping it sorted so
// requeued shards lease back out in span order.
func insertSorted(s []int, v int) []int {
	at := len(s)
	for i, x := range s {
		if v < x {
			at = i
			break
		}
	}
	s = append(s, 0)
	copy(s[at+1:], s[at:])
	s[at] = v
	return s
}
