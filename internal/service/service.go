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

// job is the scheduler-internal mutable job record; Job snapshots are
// derived from it under its lock.
type job struct {
	id      string
	req     Request
	factory problems.Factory
	opts    multiwalk.Options
	timeout time.Duration
	tenant  string
	class   int // priority class, from classOf

	done chan struct{} // closed on reaching a terminal state

	mu        sync.Mutex
	state     State
	submitted time.Time
	started   time.Time
	finished  time.Time
	res       *multiwalk.Result
	err       error
	cancelRun context.CancelFunc // set while running
}

// release drops what only a run reads: the factory, which holds the
// job's template, the Progress hook, and the run's cancel, which holds
// its context and deadline timer. A job leaves the queued and running
// states exactly once, and nothing reads these fields after that —
// runJob reads the first two only once it has moved the job from
// queued to running under mu, and Cancel calls the third only while
// the job is running — so a finished job kept for ResultTTL holds its
// record and result, not its instance or its run. Callers hold mu.
func (j *job) release() {
	j.factory = nil
	j.opts.Progress = nil
	j.cancelRun = nil
}

// snapshot builds the immutable transport view.
func (j *job) snapshot() Job {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := Job{
		ID:          j.id,
		State:       j.state,
		Request:     j.req,
		SubmittedAt: j.submitted,
		StartedAt:   j.started,
		FinishedAt:  j.finished,
		Result:      condenseResult(j.res),
	}
	if j.err != nil {
		out.Error = j.err.Error()
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

	// mu guards the slot pool, the admission queue, the tenant ledgers
	// and the jobs store; cond (on mu) is broadcast whenever any of them
	// changes — new work, freed slots, a capacity change from the
	// backend, a cancellation, shutdown — and wakes the dispatcher. The
	// queue is a slice, not a channel, so Submit can never block on a
	// send while holding mu (a queued job that is cancelled leaves the
	// queue immediately, keeping len(q) == nQueued).
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

	// verdicts is admission's memo (see verdict): the tuned engine
	// options of each spec that built and reduced, keyed by specKey. It
	// holds options, never an instance, and at most verdictMemoCap of
	// them.
	verdictMu sync.Mutex
	verdicts  map[string]core.Options

	seq   atomic.Uint64
	start time.Time
	// now stamps a job's submitted, started and finished times: time.Now,
	// but for a test that pins a job record's bytes.
	now func() time.Time

	// Counters for /metrics. Gauges (queued, running, slots busy) live
	// under mu or as atomics; the rest are cumulative.
	mRunning    atomic.Int64
	mSubmitted  atomic.Int64
	mRejected   atomic.Int64
	mSolved     atomic.Int64
	mUnsolved   atomic.Int64
	mCancelled  atomic.Int64
	mFailed     atomic.Int64
	mIterations atomic.Int64
	mAdoptions  atomic.Int64
	mYielded    atomic.Int64
	// Auto-size outcomes: predictions that chose a walker count, and
	// typed rejections (no calibration / unsatisfiable target).
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
		verdicts:  make(map[string]core.Options),
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
	return j.snapshot(), nil
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
	started, err := s.admit(j, ctx.Done() == nil)
	if err != nil {
		return Job{}, err
	}
	if started {
		s.runJob(j)
		return j.snapshot(), nil
	}
	select {
	case <-j.done:
		return j.snapshot(), nil
	case <-ctx.Done():
		return j.snapshot(), ctx.Err()
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
// is started here instead: admit reports true, and the caller must run
// it (runJob). Such a job is the dispatcher's only candidate and fits,
// so starting it here changes no pick.
func (s *Scheduler) admit(j *job, inline bool) (started bool, err error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.mRejected.Add(1)
		return false, ErrClosed
	}
	if s.nQueued >= s.cfg.QueueDepth {
		s.mu.Unlock()
		s.mRejected.Add(1)
		return false, ErrQueueFull
	}
	s.mSubmitted.Add(1)
	s.nQueued++
	s.tenantLocked(j.tenant).queued++
	s.jobs[j.id] = j
	if inline && len(s.q) == 0 {
		s.syncSlotsLocked()
		if s.slotsFree >= j.opts.Walkers && !s.quotaBlockedLocked(j) {
			s.startLocked(j)
			s.mu.Unlock()
			return true, nil
		}
	}
	s.q = append(s.q, j)
	s.mu.Unlock()
	s.cond.Broadcast()
	return false, nil
}

// Get returns a job snapshot by id.
func (s *Scheduler) Get(id string) (Job, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return Job{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return j.snapshot(), nil
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
		return j.snapshot(), nil
	case <-ctx.Done():
		return Job{}, ctx.Err()
	}
}

// Cancel cancels a job: a queued job is finalized immediately, a
// running one has its context cancelled (the walkers notice within
// CheckEvery iterations). Cancelling a finished job is a no-op.
func (s *Scheduler) Cancel(id string) (Job, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return Job{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	if !s.tryCancelQueued(j) {
		j.mu.Lock()
		cancel := j.cancelRun
		running := j.state == StateRunning
		j.mu.Unlock()
		if running && cancel != nil {
			cancel()
		}
	}
	return j.snapshot(), nil
}

// tryCancelQueued finalizes a still-queued job as cancelled, removing
// it from the FIFO so it stops occupying a queue position. The removal
// happens under s.mu — the same lock the dispatcher pops under — so a
// job cannot be both removed here and dispatched. It returns false if
// the job already left the queued state, including when runJob's
// queued→running transition interleaves after the removal scan: the
// transition is re-checked atomically in finalizeQueued, so a job that
// made it to running is never marked cancelled with its walkers still
// live — the caller falls through to cancelRun instead.
func (s *Scheduler) tryCancelQueued(j *job) bool {
	s.mu.Lock()
	j.mu.Lock()
	queued := j.state == StateQueued
	j.mu.Unlock()
	if !queued {
		s.mu.Unlock()
		return false
	}
	for i, qj := range s.q {
		if qj == j {
			s.q = append(s.q[:i:i], s.q[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
	if !s.finalizeQueued(j, fmt.Errorf("cancelled while queued")) {
		return false
	}
	s.cond.Broadcast()
	return true
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
			q := s.q
			s.q = nil
			s.mu.Unlock()
			for _, j := range q {
				s.finalizeQueued(j, fmt.Errorf("scheduler shut down"))
			}
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
			s.mu.Unlock()
			s.finalizeQueued(j, fmt.Errorf("pool shrank to %d slots below the job's %d walkers", s.slots, j.opts.Walkers))
			s.mu.Lock()
			continue
		}
		if s.slotsFree < j.opts.Walkers {
			s.cond.Wait()
			continue
		}
		s.removeQueuedLocked(j)
		s.startLocked(j)
		s.mu.Unlock()
		go s.runJob(j)
		s.mu.Lock()
	}
}

// startLocked hands j its walker slots and books the start in its
// tenant's ledger; the caller then runs j (runJob), which releases
// them. The dispatcher and an inline SubmitWait both start jobs through
// it, so the ledger cannot tell which one did. Callers hold s.mu, which
// also orders the wg.Add before Close's Wait.
func (s *Scheduler) startLocked(j *job) {
	s.slotsFree -= j.opts.Walkers
	t := s.tenantLocked(j.tenant)
	t.inUse += j.opts.Walkers
	t.dispatched++
	// An up-front charge of one walker-second-equivalent per walker
	// moves the fairness needle even for near-instant jobs, so a
	// tenant flooding short jobs cannot stay at zero accrued service.
	t.charge += float64(j.opts.Walkers) / float64(t.weight)
	s.wg.Add(1)
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

// releaseSlots returns a job's slots to the pool and settles its
// tenant's weighted-service charge for the walker-seconds consumed.
func (s *Scheduler) releaseSlots(j *job) {
	j.mu.Lock()
	started := j.started
	j.mu.Unlock()
	var elapsed float64
	if !started.IsZero() {
		elapsed = time.Since(started).Seconds()
	}
	s.mu.Lock()
	s.slotsFree += j.opts.Walkers
	t := s.tenantLocked(j.tenant)
	t.inUse -= j.opts.Walkers
	t.charge += float64(j.opts.Walkers) * elapsed / float64(t.weight)
	s.mu.Unlock()
	s.cond.Broadcast()
}

// runJob executes one started job (see startLocked), holding its slots
// for the duration. The slots go back before done is closed, as the
// counters do (see finalizeQueued): a client that awaits the job and
// then reads Stats must not find it still counted in SlotsBusy.
func (s *Scheduler) runJob(j *job) {
	defer s.wg.Done()

	runCtx, cancel := context.WithTimeout(s.ctx, j.timeout)
	defer cancel()

	j.mu.Lock()
	if j.state != StateQueued {
		// Lost a race with Cancel between startLocked and here.
		j.mu.Unlock()
		s.releaseSlots(j)
		return
	}
	j.state = StateRunning
	j.started = s.now()
	j.cancelRun = cancel
	j.mu.Unlock()
	s.decQueued(j)
	s.mRunning.Add(1)

	res, err := s.runBackend(runCtx, j)
	s.releaseSlots(j)
	switch {
	case err != nil:
		s.finalize(j, StateFailed, nil, err)
	case res.Solved:
		s.finalize(j, StateSolved, &res, nil)
	case res.Truncated:
		cause := context.Cause(runCtx)
		if cause == context.DeadlineExceeded {
			s.finalize(j, StateCancelled, &res, fmt.Errorf("deadline exceeded after %v", j.timeout))
		} else {
			s.finalize(j, StateCancelled, &res, fmt.Errorf("cancelled"))
		}
	default:
		s.finalize(j, StateUnsolved, &res, nil)
	}
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

// finalizeQueued cancels a job if and only if it is still queued —
// the state re-check happens under j.mu, so a concurrent
// queued→running transition in runJob makes this a no-op rather than
// marking a live run cancelled.
func (s *Scheduler) finalizeQueued(j *job, err error) bool {
	j.mu.Lock()
	if j.state != StateQueued {
		j.mu.Unlock()
		return false
	}
	j.state = StateCancelled
	j.finished = s.now()
	j.err = err
	j.release()
	j.mu.Unlock()
	// Counters move before done is closed so a waiter woken by
	// Wait/SubmitWait never reads Stats from before its own job's
	// terminal transition.
	s.decQueued(j)
	s.mCancelled.Add(1)
	close(j.done)
	return true
}

// finalize moves a job to a terminal state exactly once, updating the
// metric counters and waking waiters.
func (s *Scheduler) finalize(j *job, state State, res *multiwalk.Result, err error) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	prev := j.state
	j.state = state
	j.finished = s.now()
	j.res = res
	j.err = err
	j.release()
	j.mu.Unlock()

	// Counters move before done is closed (see finalizeQueued).
	switch prev {
	case StateQueued:
		s.decQueued(j)
	case StateRunning:
		s.mRunning.Add(-1)
	}
	switch state {
	case StateSolved:
		s.mSolved.Add(1)
	case StateUnsolved:
		s.mUnsolved.Add(1)
	case StateCancelled:
		s.mCancelled.Add(1)
	case StateFailed:
		s.mFailed.Add(1)
	}
	if res != nil {
		s.mAdoptions.Add(res.Adoptions)
		for _, ws := range res.Walkers {
			if ws.Yielded {
				s.mYielded.Add(1)
			}
		}
		if state == StateSolved {
			s.recordOutcome(j, &jobOutcome{
				solved:           res.Solved,
				winnerIterations: res.WinnerIterations,
				totalIterations:  res.TotalIterations,
				elapsed:          res.Elapsed,
			})
		}
	}
	close(j.done)
}

// decQueued releases one admission-queue position and the tenant's
// queued count. Callers must not hold s.mu (finalize is only ever
// invoked outside it).
func (s *Scheduler) decQueued(j *job) {
	s.mu.Lock()
	s.nQueued--
	s.tenantLocked(j.tenant).queued--
	s.mu.Unlock()
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
		j.mu.Lock()
		dead := j.state.Terminal() && j.finished.Before(cutoff)
		j.mu.Unlock()
		if dead {
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

// Stats assembles the current metrics snapshot.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	s.syncSlotsLocked()
	slots := s.slots
	busy := slots - s.slotsFree
	stored := len(s.jobs)
	depth := s.nQueued
	var tenants map[string]TenantStats
	if len(s.tenants) > 0 {
		tenants = make(map[string]TenantStats, len(s.tenants))
		for name, t := range s.tenants {
			tenants[name] = TenantStats{
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
	iters := s.mIterations.Load()
	st := Stats{
		Backend:       s.cfg.Backend.Name(),
		Slots:         slots,
		SlotsBusy:     busy,
		QueueDepth:    depth,
		QueueCapacity: s.cfg.QueueDepth,
		JobsQueued:    int64(depth),
		JobsRunning:   s.mRunning.Load(),
		JobsSubmitted: s.mSubmitted.Load(),
		JobsRejected:  s.mRejected.Load(),
		JobsSolved:    s.mSolved.Load(),
		JobsUnsolved:  s.mUnsolved.Load(),
		JobsCancelled: s.mCancelled.Load(),
		JobsFailed:    s.mFailed.Load(),
		JobsStored:    stored,
		Iterations:    iters,
		Adoptions:     s.mAdoptions.Load(),
		Yielded:       s.mYielded.Load(),
		AutoSized:     s.mAutoSized.Load(),
		AutoRejected:  s.mAutoRejected.Load(),
		UptimeMS:      up.Milliseconds(),
		Tenants:       tenants,
	}
	if sec := up.Seconds(); sec > 0 {
		st.IterationsPerSec = float64(iters) / sec
	}
	if mp, ok := s.cfg.Backend.(MetricsProvider); ok {
		st.Fleet = mp.BackendMetrics()
	}
	return st
}
