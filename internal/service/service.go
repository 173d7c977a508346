// Package service is the serving layer over the multi-walk solver: an
// admission-controlled job scheduler that multiplexes many concurrent
// solve requests over a bounded pool of walker slots.
//
// The design follows the paper's resource model directly: one walker is
// one core's worth of work, so a k-walker job consumes k slots of a
// pool sized to GOMAXPROCS by default. Admission is queue-depth
// backpressured (ErrQueueFull) and weighted-fair across tenants within
// strict priority classes (see dispatch); each job runs under its own
// deadline as a child of the scheduler's root context, and finished
// jobs are kept in an in-memory results store until a TTL janitor
// evicts them. The slot pool tracks the backend live: an elastic
// backend (dist.Coordinator with a dynamic fleet) resizes it as workers
// join and leave. See DESIGN.md §7 for the slot-accounting rationale.
package service

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/calibrate"
	"repro/internal/core"
	"repro/internal/multiwalk"
	"repro/internal/problems"
)

// Config sizes the scheduler. The zero value of every field selects a
// default.
type Config struct {
	// Slots is the walker-slot pool size — the number of engine
	// goroutines allowed to run concurrently across all jobs. 0 selects
	// runtime.GOMAXPROCS(0), the paper's one-walker-per-core model.
	// When Backend is set, Slots is ignored: the pool is sized to
	// Backend.Slots().
	Slots int

	// Backend executes admitted jobs. nil selects the in-process local
	// pool. Passing a backend (e.g. a dist.Coordinator over a worker
	// fleet) transfers its ownership to the scheduler: Close closes it.
	Backend Backend
	// QueueDepth bounds the FIFO admission queue; submissions beyond it
	// are rejected with ErrQueueFull. 0 selects 256.
	QueueDepth int
	// DefaultTimeout is the per-job deadline applied when a request
	// does not set one. 0 selects 30s.
	DefaultTimeout time.Duration
	// MaxTimeout caps request-supplied deadlines. 0 selects 5m.
	MaxTimeout time.Duration
	// ResultTTL is how long a finished job stays retrievable. 0 selects
	// 10m.
	ResultTTL time.Duration
	// Tenants sets per-tenant admission policy, keyed by the tenant
	// name carried on Request.Tenant. Tenants absent from the map (and
	// the implicit "default" tenant) get weight 1 and no quota.
	Tenants map[string]TenantPolicy
	// Calibration, when non-nil, enables the AutoSize admission mode
	// (see autosize.go) and the live calibration feed: solved jobs are
	// recorded back into the store, so serving traffic keeps the
	// runtime-distribution models fresh. nil disables both — AutoSize
	// requests then fail with ErrNoCalibration. The store is shared,
	// not owned: the serving binary persists it across restarts.
	Calibration *calibrate.Store
}

// TenantPolicy shapes one tenant's share of the walker-slot pool.
type TenantPolicy struct {
	// Weight is the tenant's share of capacity under contention: with
	// tenants A (weight 3) and B (weight 1) both saturating the queue, A
	// dispatches about three walker-seconds for every one of B's. 0
	// selects 1.
	Weight int
	// MaxSlots caps the tenant's concurrently held walker slots. A job
	// that would push the tenant past its cap waits without blocking
	// other tenants' admissions. 0 means uncapped.
	MaxSlots int
}

// tenantAcct is the scheduler's per-tenant ledger, guarded by
// Scheduler.mu. charge is the accrued weighted service — walker-seconds
// divided by weight — that the fair-share pick compares across tenants.
type tenantAcct struct {
	weight     int
	maxSlots   int
	inUse      int // walker slots currently held by running jobs
	queued     int
	charge     float64
	dispatched int64
}

func (c *Config) normalize() {
	if c.Backend == nil {
		if c.Slots <= 0 {
			c.Slots = runtime.GOMAXPROCS(0)
		}
		c.Backend = &localBackend{slots: c.Slots}
	}
	// The backend is the single source of truth for capacity; admission
	// control, request validation and /healthz all read cfg.Slots.
	c.Slots = c.Backend.Slots()
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.ResultTTL <= 0 {
		c.ResultTTL = 10 * time.Minute
	}
}

// job is the scheduler-internal job record. Its first fields never
// change after newJob; the rest change under Scheduler.mu only, where
// startLocked moves the job to running and finishAndUnlock to its
// terminal state. A run reads factory and opts without the lock: both
// are set before admission, and finishAndUnlock drops the factory, the
// Progress hook and the run's cancel only once the run has returned, so
// a finished job kept for ResultTTL holds its record and its condensed
// result, not its instance, its run or its walkers' stats.
type job struct {
	id      string
	req     Request
	timeout time.Duration
	tenant  string
	class   int // priority class, from classOf

	done chan struct{} // closed on reaching a terminal state

	factory   problems.Factory
	opts      multiwalk.Options
	state     State
	submitted time.Time
	started   time.Time
	finished  time.Time
	res       *JobResult // set once, when the job turns terminal; read-only
	err       error
	cancelRun context.CancelFunc // set while running
}

// snapshot builds the transport view: the record is copied under s.mu,
// and its result, which no one writes once it is set, is shared.
func (s *Scheduler) snapshot(j *job) Job {
	s.mu.Lock()
	out := Job{
		ID:          j.id,
		State:       j.state,
		Request:     j.req,
		SubmittedAt: j.submitted,
		StartedAt:   j.started,
		FinishedAt:  j.finished,
		Result:      j.res,
	}
	err := j.err
	s.mu.Unlock()
	if err != nil {
		out.Error = err.Error()
	}
	return out
}

// Scheduler is the admission-controlled solve service. Create one with
// New, submit jobs with Submit (or SubmitWait), and shut it down with
// Close — which cancels every queued and running job and waits for all
// worker goroutines to exit.
type Scheduler struct {
	cfg Config

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup // dispatcher + janitor + running jobs

	// mu guards the slot pool, the admission queue, the tenant ledgers,
	// the jobs store, every job's lifecycle and the lifecycle counters;
	// cond (on mu) is broadcast whenever any of them changes — new work,
	// freed slots, a capacity change from the backend, a cancellation,
	// shutdown — and wakes the dispatcher. The queue is a slice, not a
	// channel, so Submit can never block on a send while holding mu.
	mu        sync.Mutex
	cond      *sync.Cond
	slots     int // live pool size, synced from Backend.Slots()
	slotsFree int
	q         []*job
	jobs      map[string]*job
	tenants   map[string]*tenantAcct
	closed    bool
	// nQueued counts admitted-but-not-yet-running jobs; admission
	// control tests it against QueueDepth.
	nQueued int
	// Lifecycle counters for /metrics, moved with the job they count.
	mSubmitted, mRunning, mSolved, mUnsolved, mCancelled, mFailed, mAdoptions, mYielded, mUnstarted int64

	seq   atomic.Uint64
	start time.Time
	// now stamps a job's submitted, started and finished times: time.Now,
	// but for a test that pins a job record's bytes.
	now func() time.Time

	// Counters bumped where mu is not held: walkers' iterations (through
	// the Progress hook), requests refused before admission, and
	// auto-size outcomes (predictions that chose a walker count, typed
	// rejections).
	mIterations   atomic.Int64
	mRejected     atomic.Int64
	mAutoSized    atomic.Int64
	mAutoRejected atomic.Int64
}

// New starts a scheduler with the given configuration.
func New(cfg Config) *Scheduler {
	cfg.normalize()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Scheduler{
		cfg:       cfg,
		ctx:       ctx,
		cancel:    cancel,
		slots:     cfg.Slots,
		slotsFree: cfg.Slots,
		jobs:      make(map[string]*job),
		tenants:   make(map[string]*tenantAcct),
		start:     time.Now(),
		now:       time.Now,
	}
	s.cond = sync.NewCond(&s.mu)
	// An elastic backend pushes capacity changes; the dispatcher re-syncs
	// the pool and re-picks on every wake, so a worker joining mid-queue
	// unblocks waiting jobs without polling.
	if cn, ok := cfg.Backend.(CapacityNotifier); ok {
		cn.NotifyCapacity(func() {
			s.mu.Lock()
			s.syncSlotsLocked()
			s.mu.Unlock()
			s.cond.Broadcast()
		})
	}
	s.wg.Add(2)
	go s.dispatch()
	go s.janitor()
	return s
}

// syncSlotsLocked reconciles the slot pool with the backend's current
// capacity. Shrinks can drive slotsFree temporarily negative while
// running jobs still hold slots on lost workers; releases restore it.
func (s *Scheduler) syncSlotsLocked() {
	if cur := s.cfg.Backend.Slots(); cur != s.slots {
		s.slotsFree += cur - s.slots
		s.slots = cur
	}
}

// curSlots returns the live pool size (admission validates against it).
func (s *Scheduler) curSlots() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.syncSlotsLocked()
	return s.slots
}

// tenantLocked returns (creating on first use) the tenant's ledger,
// seeded from the configured policy. Callers hold s.mu.
func (s *Scheduler) tenantLocked(name string) *tenantAcct {
	t, ok := s.tenants[name]
	if !ok {
		t = &tenantAcct{weight: 1}
		if pol, ok := s.cfg.Tenants[name]; ok {
			if pol.Weight > 0 {
				t.weight = pol.Weight
			}
			if pol.MaxSlots > 0 {
				t.maxSlots = pol.MaxSlots
			}
		}
		s.tenants[name] = t
	}
	return t
}

// Config returns the normalized configuration the scheduler runs with.
func (s *Scheduler) Config() Config { return s.cfg }

// Submit validates and admits a job, returning its queued snapshot.
// The call never blocks on solver work: a full queue fails fast with
// ErrQueueFull, validation failures with ErrBadRequest.
func (s *Scheduler) Submit(req Request) (Job, error) {
	j, err := s.newJob(req)
	if err == nil {
		_, err = s.admit(j, false)
	}
	if err != nil {
		return Job{}, err
	}
	return s.snapshot(j), nil
}

// SubmitWait submits a job and blocks until it reaches a terminal
// state or ctx is cancelled. In the latter case the job keeps running
// and its current snapshot is returned alongside the context error, so
// the caller retains the id to cancel or poll it.
//
// A caller whose ctx can never be cancelled waits to the end whatever
// happens, so when the dispatcher would start its job at once (see
// admit), the job runs on the caller's goroutine instead of costing a
// hand-off to the dispatcher, a runner goroutine and a wake-up back.
func (s *Scheduler) SubmitWait(ctx context.Context, req Request) (Job, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	j, err := s.newJob(req)
	if err != nil {
		return Job{}, err
	}
	runCtx, err := s.admit(j, ctx.Done() == nil)
	if err != nil {
		return Job{}, err
	}
	if runCtx != nil {
		s.runJob(runCtx, j)
		return s.snapshot(j), nil
	}
	select {
	case <-j.done:
		return s.snapshot(j), nil
	case <-ctx.Done():
		return s.snapshot(j), ctx.Err()
	}
}

// newJob validates req and builds its job record, not yet admitted.
func (s *Scheduler) newJob(req Request) (*job, error) {
	factory, opts, err := s.normalizeRequest(&req)
	if err != nil {
		s.mRejected.Add(1)
		return nil, err
	}
	seq := s.seq.Add(1)
	if req.Seed == 0 {
		// A stable per-job default keeps replays possible (the seed is
		// echoed back in the job's Request) without making every
		// unseeded job identical.
		req.Seed = seq*0x9e3779b97f4a7c15 + 1
	}
	opts.Seed = req.Seed
	class, _ := classOf(req.Priority) // validated by normalizeRequest
	j := &job{
		id:        fmt.Sprintf("j%06d", seq),
		req:       req,
		factory:   factory,
		opts:      opts,
		timeout:   s.timeoutFor(&req),
		tenant:    req.Tenant,
		class:     class,
		done:      make(chan struct{}),
		state:     StateQueued,
		submitted: s.now(),
	}
	j.opts.Progress = s.progressFor(j)
	return j, nil
}

// admit counts j against the queue's depth and queues it for the
// dispatcher. With inline set, a job the dispatcher would start at once
// — nothing queued ahead of it, its slots free, its tenant under quota —
// is started here instead: admit returns its run context, and the
// caller must run it (runJob). Such a job is the dispatcher's only
// candidate and fits, so starting it here changes no pick.
func (s *Scheduler) admit(j *job, inline bool) (context.Context, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.mRejected.Add(1)
		return nil, ErrClosed
	}
	if s.nQueued >= s.cfg.QueueDepth {
		s.mu.Unlock()
		s.mRejected.Add(1)
		return nil, ErrQueueFull
	}
	s.mSubmitted++
	s.nQueued++
	s.tenantLocked(j.tenant).queued++
	s.jobs[j.id] = j
	if inline && len(s.q) == 0 {
		s.syncSlotsLocked()
		if s.slotsFree >= j.opts.Walkers && !s.quotaBlockedLocked(j) {
			runCtx := s.startLocked(j)
			s.mu.Unlock()
			return runCtx, nil
		}
	}
	s.q = append(s.q, j)
	s.mu.Unlock()
	s.cond.Broadcast()
	return nil, nil
}

// Get returns a job snapshot by id.
func (s *Scheduler) Get(id string) (Job, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return Job{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return s.snapshot(j), nil
}

// Wait blocks until the job reaches a terminal state or ctx is done.
func (s *Scheduler) Wait(ctx context.Context, id string) (Job, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return Job{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-j.done:
		return s.snapshot(j), nil
	case <-ctx.Done():
		return Job{}, ctx.Err()
	}
}

// Cancel cancels a job: a queued job leaves the queue and is finished
// at once, a running one has its context cancelled (the walkers notice
// within CheckEvery iterations). Cancelling a finished job is a no-op.
func (s *Scheduler) Cancel(id string) (Job, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	switch {
	case !ok:
		s.mu.Unlock()
		return Job{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	case j.state == StateQueued:
		s.removeQueuedLocked(j)
		s.finishAndUnlock(j, StateCancelled, nil, fmt.Errorf("cancelled while queued"))
	default:
		cancel := j.cancelRun // nil unless the job is running
		s.mu.Unlock()
		if cancel != nil {
			cancel()
		}
	}
	return s.snapshot(j), nil
}

// Close shuts the scheduler down: new submissions fail with ErrClosed,
// queued jobs are cancelled, running jobs are interrupted, and Close
// returns once every goroutine has exited.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.cancel()
	s.cond.Broadcast()
	s.wg.Wait()
	// Every job has drained; the backend (owned since New) goes last.
	s.cfg.Backend.Close()
}

// Closed reports whether Close has been called.
func (s *Scheduler) Closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// dispatch is the single admission loop. Each round it re-syncs the
// slot pool with the backend (elastic fleets change capacity between
// rounds), picks a candidate under weighted-fair multi-tenant rules
// (see pickLocked), and launches it if it fits. If it does not, the
// loop waits without backfilling a narrower job behind it, so releases
// accumulate toward a wide job; the pick is made afresh on every wake,
// so which job waits depends on the queue and the ledgers alone, never
// on when the dispatcher last looked. A waiting job's tenant accrues no
// charge while every tenant dispatched in its place does, so it is
// picked again after finitely many dispatches. The cond is broadcast on
// every queue/slot/capacity/lifecycle change.
func (s *Scheduler) dispatch() {
	defer s.wg.Done()
	s.mu.Lock()
	for {
		if s.ctx.Err() != nil {
			// Shutdown: cancel everything still queued.
			for len(s.q) > 0 {
				j := s.q[0]
				s.q = s.q[1:]
				s.finishAndUnlock(j, StateCancelled, nil, fmt.Errorf("scheduler shut down"))
				s.mu.Lock()
			}
			s.mu.Unlock()
			return
		}
		s.syncSlotsLocked()
		j := s.pickLocked()
		if j == nil {
			s.cond.Wait()
			continue
		}
		if s.slots > 0 && j.opts.Walkers > s.slots {
			// The fleet shrank below the job's width after admission: it
			// can never fit, so fail it rather than wedging the queue.
			// (An empty pool is transient — workers rejoin — so jobs
			// wait it out instead.)
			s.removeQueuedLocked(j)
			s.finishAndUnlock(j, StateCancelled, nil, fmt.Errorf("pool shrank to %d slots below the job's %d walkers", s.slots, j.opts.Walkers))
			s.mu.Lock()
			continue
		}
		if s.slotsFree < j.opts.Walkers {
			s.cond.Wait()
			continue
		}
		runCtx := s.startLocked(j)
		s.mu.Unlock()
		go s.runJob(runCtx, j)
		s.mu.Lock()
	}
}

// startLocked moves j from the queue to running: it hands j its walker
// slots, books the start in its tenant's ledger, and makes the run's
// context, whose deadline counts from here. The caller then runs j
// (runJob) under that context. The dispatcher and an inline SubmitWait
// both start jobs through it, so the ledger cannot tell which one did.
// Callers hold s.mu, which also orders the wg.Add before Close's Wait.
func (s *Scheduler) startLocked(j *job) context.Context {
	s.removeQueuedLocked(j)
	s.nQueued--
	s.slotsFree -= j.opts.Walkers
	t := s.tenantLocked(j.tenant)
	t.queued--
	t.inUse += j.opts.Walkers
	t.dispatched++
	// An up-front charge of one walker-second-equivalent per walker
	// moves the fairness needle even for near-instant jobs, so a
	// tenant flooding short jobs cannot stay at zero accrued service.
	t.charge += float64(j.opts.Walkers) / float64(t.weight)
	s.mRunning++
	j.state = StateRunning
	j.started = s.now()
	runCtx, cancel := context.WithTimeout(s.ctx, j.timeout)
	j.cancelRun = cancel
	s.wg.Add(1)
	return runCtx
}

// pickLocked selects the next dispatch candidate: the earliest-arrived
// job of each (tenant, class) pair is a head; quota-blocked heads are
// skipped (a capped tenant never blocks others); among the rest the
// highest class wins, and within a class the tenant with the least
// accrued weighted service — ties keep the earlier arrival. Callers
// hold s.mu.
func (s *Scheduler) pickLocked() *job {
	type head struct {
		tenant string
		class  int
	}
	seen := make(map[head]bool)
	var best *job
	var bestT *tenantAcct
	for _, j := range s.q {
		k := head{j.tenant, j.class}
		if seen[k] {
			continue
		}
		seen[k] = true
		if s.quotaBlockedLocked(j) {
			continue
		}
		t := s.tenantLocked(j.tenant)
		switch {
		case best == nil:
			best, bestT = j, t
		case j.class != best.class:
			if j.class < best.class {
				best, bestT = j, t
			}
		case t.charge < bestT.charge:
			best, bestT = j, t
		}
	}
	return best
}

// quotaBlockedLocked reports whether dispatching j now would push its
// tenant past MaxSlots. Callers hold s.mu.
func (s *Scheduler) quotaBlockedLocked(j *job) bool {
	t := s.tenantLocked(j.tenant)
	return t.maxSlots > 0 && t.inUse+j.opts.Walkers > t.maxSlots
}

// removeQueuedLocked removes j from the admission queue.
func (s *Scheduler) removeQueuedLocked(j *job) {
	for i, qj := range s.q {
		if qj == j {
			s.q = append(s.q[:i:i], s.q[i+1:]...)
			return
		}
	}
}

// runJob executes one started job (see startLocked) under its run
// context and finishes it with the run's outcome.
func (s *Scheduler) runJob(runCtx context.Context, j *job) {
	defer s.wg.Done()
	res, err := s.runBackend(runCtx, j)
	state, out := StateUnsolved, &res
	switch {
	case err != nil:
		state, out = StateFailed, nil
	case res.Solved:
		state = StateSolved
	case res.Truncated:
		state, err = StateCancelled, fmt.Errorf("cancelled")
		if context.Cause(runCtx) == context.DeadlineExceeded {
			err = fmt.Errorf("deadline exceeded after %v", j.timeout)
		}
	}
	s.mu.Lock()
	s.finishAndUnlock(j, state, out, err)
}

// runBackend runs j on the backend and turns a panic there into the
// job's error, so that a panicking problem fails its job — slots
// released, waiters woken — instead of the process or, on an inline
// run, the caller's request.
func (s *Scheduler) runBackend(ctx context.Context, j *job) (res multiwalk.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = multiwalk.Result{}, fmt.Errorf("backend panicked: %v", p)
		}
	}()
	return s.cfg.Backend.RunJob(ctx, j.req.Problem, j.req.Size, j.req.Params, j.factory, j.opts)
}

// finishAndUnlock moves j, queued or running, to its terminal state:
// every way out — a queued cancel, a pool shrink, shutdown and the end
// of a run — goes through it once. Callers hold s.mu, and a queued j
// has left s.q; finishAndUnlock releases s.mu. Under it, a running job's
// slots go back and its tenant is charged for the walker-seconds used,
// the record turns terminal with the run's result condensed, once, and
// drops what only a run reads, and the counters move. Only then are
// waiters woken, so one that reads Stats finds its job's slots and
// counts settled.
func (s *Scheduler) finishAndUnlock(j *job, state State, res *multiwalk.Result, err error) {
	t := s.tenantLocked(j.tenant)
	if j.state == StateQueued {
		s.nQueued--
		t.queued--
	} else {
		s.mRunning--
		s.slotsFree += j.opts.Walkers
		t.inUse -= j.opts.Walkers
		t.charge += float64(j.opts.Walkers) * time.Since(j.started).Seconds() / float64(t.weight)
	}
	cancel := j.cancelRun
	j.state, j.finished, j.res, j.err = state, s.now(), condenseResult(res), err
	j.factory, j.opts.Progress, j.cancelRun = nil, nil, nil
	switch state {
	case StateSolved:
		s.mSolved++
	case StateUnsolved:
		s.mUnsolved++
	case StateCancelled:
		s.mCancelled++
	case StateFailed:
		s.mFailed++
	}
	if res != nil {
		s.mAdoptions += res.Adoptions
		for _, ws := range res.Walkers {
			if ws.Yielded {
				s.mYielded++
			}
			if ws.Result.Interrupted && ws.Result.Iterations == 0 && ws.Result.Cost == core.CostUnknown {
				s.mUnstarted++
			}
		}
	}
	s.mu.Unlock()
	s.cond.Broadcast()
	if cancel != nil {
		cancel()
	}
	s.recordOutcome(j, res)
	close(j.done)
}

// janitor evicts finished jobs past their ResultTTL.
func (s *Scheduler) janitor() {
	defer s.wg.Done()
	period := s.cfg.ResultTTL / 4
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	if period > 30*time.Second {
		period = 30 * time.Second
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case now := <-tick.C:
			s.evict(now)
		}
	}
}

// evict removes finished jobs whose TTL has expired.
func (s *Scheduler) evict(now time.Time) {
	cutoff := now.Add(-s.cfg.ResultTTL)
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, j := range s.jobs {
		if j.state.Terminal() && j.finished.Before(cutoff) {
			delete(s.jobs, id)
		}
	}
}

// progressFor returns the per-job multiwalk Progress hook feeding the
// global iteration throughput counter. Each walker's cumulative count
// is turned into deltas through a per-walker cell — only that walker's
// goroutine touches it, so a plain slice suffices; the shared counter
// is atomic.
func (s *Scheduler) progressFor(j *job) func(int, int64, int) {
	last := make([]int64, j.opts.Walkers)
	return func(w int, iter int64, _ int) {
		s.mIterations.Add(iter - last[w])
		last[w] = iter
	}
}

// Stats is the point-in-time metrics snapshot served by /metrics.
type Stats struct {
	Backend       string `json:"backend"`
	Slots         int    `json:"slots"`
	SlotsBusy     int    `json:"slots_busy"`
	QueueDepth    int    `json:"queue_depth"`
	QueueCapacity int    `json:"queue_capacity"`
	JobsQueued    int64  `json:"jobs_queued"`
	JobsRunning   int64  `json:"jobs_running"`
	JobsSubmitted int64  `json:"jobs_submitted"`
	JobsRejected  int64  `json:"jobs_rejected"`
	JobsSolved    int64  `json:"jobs_solved"`
	JobsUnsolved  int64  `json:"jobs_unsolved"`
	JobsCancelled int64  `json:"jobs_cancelled"`
	JobsFailed    int64  `json:"jobs_failed"`
	JobsStored    int    `json:"jobs_stored"`
	// Iterations is the cumulative engine iteration count across every
	// walker of every job. IterationsPerSec is the lifetime average
	// (Iterations over uptime), not a live window — an idle server's
	// rate decays toward zero rather than dropping to it.
	Iterations       int64   `json:"iterations_total"`
	IterationsPerSec float64 `json:"iterations_per_sec"`
	// Adoptions and Yielded aggregate the dependent (Exchange) scheme's
	// activity across finished jobs: elite-configuration adoptions and
	// walkers that stood down because the board showed the job solved
	// elsewhere. Both stay 0 on a fleet running only independent jobs.
	Adoptions int64 `json:"adoptions_total"`
	Yielded   int64 `json:"yielded_total"`
	// Unstarted counts walkers of finished jobs that never searched:
	// the run was over before they started (multiwalk.Run records them
	// Interrupted, with 0 iterations and cost core.CostUnknown), or
	// they were lost with their shard.
	Unstarted int64 `json:"unstarted_total"`
	// AutoSized counts AutoSize requests admission resolved to a
	// predictor-chosen walker count; AutoRejected counts typed
	// auto-size rejections (no calibration, unsatisfiable target). Both
	// are always present — 0 on a server that never saw an AutoSize
	// request — so dashboards can rely on the keys existing.
	AutoSized    int64 `json:"autosize_predictions"`
	AutoRejected int64 `json:"autosize_rejections"`
	UptimeMS     int64 `json:"uptime_ms"`
	// Tenants is the per-tenant admission ledger (populated once a
	// tenant has submitted at least one job).
	Tenants map[string]TenantStats `json:"tenants,omitempty"`
	// Fleet carries the backend's own gauges and counters when it
	// exposes them (a dist.Coordinator reports worker states, recovered
	// shards, dispatch failovers, ...). Absent for the local pool.
	Fleet map[string]int64 `json:"fleet,omitempty"`
}

// TenantStats is one tenant's admission ledger snapshot.
type TenantStats struct {
	Weight     int     `json:"weight"`
	MaxSlots   int     `json:"max_slots,omitempty"`
	SlotsBusy  int     `json:"slots_busy"`
	Queued     int     `json:"queued"`
	Dispatched int64   `json:"jobs_dispatched"`
	Charge     float64 `json:"charge"`
}

// Stats assembles the current metrics snapshot. The pool, the queue,
// the tenant ledgers and the lifecycle counters are read in one
// critical section, so they always agree with each other.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	s.syncSlotsLocked()
	st := Stats{
		Slots:         s.slots,
		SlotsBusy:     s.slots - s.slotsFree,
		QueueDepth:    s.nQueued,
		QueueCapacity: s.cfg.QueueDepth,
		JobsQueued:    int64(s.nQueued),
		JobsRunning:   s.mRunning,
		JobsSubmitted: s.mSubmitted,
		JobsSolved:    s.mSolved,
		JobsUnsolved:  s.mUnsolved,
		JobsCancelled: s.mCancelled,
		JobsFailed:    s.mFailed,
		JobsStored:    len(s.jobs),
		Adoptions:     s.mAdoptions,
		Yielded:       s.mYielded,
		Unstarted:     s.mUnstarted,
	}
	if len(s.tenants) > 0 {
		st.Tenants = make(map[string]TenantStats, len(s.tenants))
		for name, t := range s.tenants {
			st.Tenants[name] = TenantStats{
				Weight:     t.weight,
				MaxSlots:   t.maxSlots,
				SlotsBusy:  t.inUse,
				Queued:     t.queued,
				Dispatched: t.dispatched,
				Charge:     t.charge,
			}
		}
	}
	s.mu.Unlock()
	up := time.Since(s.start)
	st.Backend = s.cfg.Backend.Name()
	st.JobsRejected = s.mRejected.Load()
	st.Iterations = s.mIterations.Load()
	st.AutoSized = s.mAutoSized.Load()
	st.AutoRejected = s.mAutoRejected.Load()
	st.UptimeMS = up.Milliseconds()
	if sec := up.Seconds(); sec > 0 {
		st.IterationsPerSec = float64(st.Iterations) / sec
	}
	if mp, ok := s.cfg.Backend.(MetricsProvider); ok {
		st.Fleet = mp.BackendMetrics()
	}
	return st
}
