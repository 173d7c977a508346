package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/httpjson"
	"repro/internal/multiwalk"
	"repro/internal/problems"
)

// CoordinatorConfig configures a coordinator over a worker fleet.
type CoordinatorConfig struct {
	// Workers lists worker base URLs (e.g. "http://10.0.0.7:9101")
	// enrolled statically at construction time, each validated, trimmed
	// and probed as a registration is. The list may be empty: workers
	// also join at runtime through FleetHandler, into the same registry.
	// Until one does, jobs fail with ErrNoCapacity.
	Workers []string
	// Client is the HTTP client used for all worker traffic. nil
	// selects a dedicated client with no global timeout (run requests
	// are long-polls bounded by their context).
	Client *http.Client
	// HeartbeatInterval is the monitor's sweep period: workers not
	// heard from (register or probe) within one interval are
	// re-probed; a failed probe makes them suspect, a second makes them
	// dead. 0 selects 2s; negative disables the monitor (tests).
	HeartbeatInterval time.Duration
	// RecoverAttempts bounds the lost-shard recovery rounds per job: a
	// shard whose worker is lost mid-run is re-planned onto healthy
	// workers and re-run — bit-for-bit identically, walker identity
	// being global — up to this many times before the job is truncated.
	// 0 selects 2; negative disables recovery (lost shards truncate
	// immediately, the pre-elastic behavior).
	RecoverAttempts int
	// BoardSync is the relay period of a dependent (Exchange) job: how
	// often the job's loop relays its best configuration to each shard
	// and reads theirs back. 0 selects 50ms.
	BoardSync time.Duration
	// Speculate enables straggler speculation for wall-clock (Run mode)
	// jobs: a detector reads each running shard's progress from its
	// worker, compares it against the job's median, and a shard lagging past
	// SpeculateThreshold is re-dispatched on a free healthy worker —
	// whichever copy finishes first wins, the loser is cancelled, and
	// its late result is dropped before shard merging. Global walker
	// identity makes the two copies bit-for-bit identical, so
	// speculation trades slots for tail latency with zero correctness
	// risk.
	Speculate bool
	// SpeculateThreshold is how far behind the job's median per-walker
	// iteration count a shard must lag before a backup launches: a
	// shard speculates when its progress × threshold < median. Must be
	// > 1; 0 selects 2 (lagging more than 2× behind).
	SpeculateThreshold float64
	// SpeculateAfter is the minimum job age before the detector acts —
	// short jobs finish before any backup could help, so they never
	// speculate. 0 selects 2s.
	SpeculateAfter time.Duration
	// SpeculateInterval is the detector's evaluation period, and the
	// bound on each progress read it makes. 0 selects 500ms.
	SpeculateInterval time.Duration
}

// JobSpec describes one distributed multi-walk job. It is the
// transportable subset of (factory, multiwalk.Options): problems are
// named, not passed as closures, and engine options must not carry
// process-local hooks (Monitor) or the in-process Exchange scheme.
type JobSpec struct {
	// Problem and Size name the benchmark instance in the shared
	// registry.
	Problem string
	Size    int
	// Params carries benchmark-specific problem parameters, shipped
	// verbatim to every shard (finite-domain benchmarks' knobs).
	Params map[string]int
	// Walkers is the whole job's walker count k.
	Walkers int
	// Seed is the master seed; walker w of the job draws seed w of the
	// master stream no matter which worker runs it.
	Seed uint64
	// Engine holds the per-walker engine options.
	Engine core.Options
	// Exchange, when Enabled, runs the job in the dependent
	// (communicating) multi-walk scheme: the job's loop relays the best
	// configuration between its shards' boards every BoardSync, so
	// adoptions cross process boundaries. Run mode only; dependent runs
	// are timing-dependent by nature (see DESIGN.md §10), unlike the
	// bit-for-bit deterministic independent modes.
	Exchange multiwalk.ExchangeOptions
}

// Coordinator shards multi-walk jobs over a fleet of workers. It
// implements the same contract as multiwalk.Run / RunVirtual — walker
// identity and the min-iterations virtual winner are bit-for-bit those
// of the single-process run — and satisfies service.Backend, so a
// Scheduler can serve its traffic from the fleet (cmd/serve -workers /
// -fleet).
//
// Fleet membership is dynamic: workers join statically (config) or at
// runtime (FleetHandler registration), register again on a cadence as
// their heartbeat, and leave by draining. A background monitor probes
// workers it has not heard from, and a shard lost to a worker failure is re-planned onto surviving
// healthy workers and re-run — global walker identity makes the re-run
// bit-for-bit identical — before the job is ever truncated.
type Coordinator struct {
	client     *http.Client
	ownsClient bool // client was built here, so Close releases it
	reg        *registry

	hbInterval      time.Duration
	recoverAttempts int

	// epoch, drawn once at random, leads every run id, and
	// seq numbers the jobs behind it. Workers outlive
	// coordinators and remember run ids (Worker.early), so the ids of two
	// coordinators must not meet although both count from 1.
	epoch string
	seq   atomic.Uint64

	boardSync time.Duration

	speculate     bool
	specThreshold float64
	specAfter     time.Duration
	specInterval  time.Duration
	// after is the job loops' clock (grace period, detector and relay
	// ticks): time.After, and a fake in tests.
	after func(time.Duration) <-chan time.Time

	monitorStop    chan struct{}
	monitorDone    chan struct{}
	monitorOnce    sync.Once
	mLostShards    atomic.Int64
	mRecShards     atomic.Int64
	mRecWalkers    atomic.Int64
	mRecRounds     atomic.Int64
	mFailovers     atomic.Int64
	mTruncations   atomic.Int64
	mProbeFails    atomic.Int64
	mProbesDone    atomic.Int64
	mSpecLaunched  atomic.Int64
	mSpecWon       atomic.Int64
	mSpecLost      atomic.Int64
	mSpecCancelled atomic.Int64
	mFirstSent     atomic.Int64
	mFirstAcked    atomic.Int64
	mBoardSyncs    atomic.Int64
	mBoardRx       atomic.Int64
	mBoardTx       atomic.Int64
}

// newFleetClient is the coordinator's default HTTP client: one shared
// transport with keep-alives and an idle pool sized to the fleet, so
// shard dispatch, cancel RPCs and health probes reuse connections
// instead of opening a fresh one per call (the default zero-value
// Client churned through ephemeral ports under load).
func newFleetClient(workers int) *http.Client {
	if workers < 1 {
		workers = 1
	}
	return &http.Client{Transport: &http.Transport{
		Proxy:               http.ProxyFromEnvironment,
		MaxIdleConns:        8 * workers,
		MaxIdleConnsPerHost: 8,
		IdleConnTimeout:     90 * time.Second,
	}}
}

// NewCoordinator enrolls the configured workers, probing each for its
// slot capacity, and fails if any static worker is unreachable — a
// fleet that starts degraded is a misconfiguration, while one that
// degrades later is handled at run time (lost shards are recovered on
// surviving workers, truncating only when capacity or the retry budget
// runs out).
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	client := cfg.Client
	ownsClient := client == nil
	if ownsClient {
		client = newFleetClient(len(cfg.Workers))
	}
	hbInterval := cfg.HeartbeatInterval
	if hbInterval == 0 {
		hbInterval = 2 * time.Second
	}
	recoverAttempts := cfg.RecoverAttempts
	if recoverAttempts == 0 {
		recoverAttempts = 2
	}
	if cfg.BoardSync < 0 {
		return nil, errors.New("dist: CoordinatorConfig.BoardSync must be >= 0")
	}
	if cfg.BoardSync == 0 {
		cfg.BoardSync = defaultBoardSync
	}
	specThreshold := cfg.SpeculateThreshold
	if specThreshold == 0 {
		specThreshold = 2
	}
	if specThreshold <= 1 {
		return nil, errors.New("dist: CoordinatorConfig.SpeculateThreshold must be > 1 (a shard speculates when progress x threshold < median)")
	}
	specAfter := cfg.SpeculateAfter
	if specAfter <= 0 {
		specAfter = 2 * time.Second
	}
	specInterval := cfg.SpeculateInterval
	if specInterval <= 0 {
		specInterval = 500 * time.Millisecond
	}
	c := &Coordinator{
		client:          client,
		ownsClient:      ownsClient,
		reg:             newRegistry(),
		epoch:           fmt.Sprintf("c%08x", rand.Uint32()),
		hbInterval:      hbInterval,
		recoverAttempts: recoverAttempts,
		boardSync:       cfg.BoardSync,
		speculate:       cfg.Speculate,
		specThreshold:   specThreshold,
		specAfter:       specAfter,
		specInterval:    specInterval,
		after:           time.After,
		monitorStop:     make(chan struct{}),
		monitorDone:     make(chan struct{}),
	}
	now := time.Now()
	for _, raw := range cfg.Workers {
		base, err := workerBase(raw)
		var slots int
		if err == nil {
			slots, err = c.probe(base)
		}
		if err != nil {
			if ownsClient {
				client.CloseIdleConnections()
			}
			return nil, fmt.Errorf("dist: enrolling worker %s: %w", raw, err)
		}
		c.reg.upsert(base, slots, now)
	}
	if hbInterval > 0 {
		go c.monitor()
	} else {
		close(c.monitorDone)
	}
	return c, nil
}

// probeTimeout bounds each health probe (enrollment, registration, the
// monitor's sweep) on a context of the probe's own: a hung worker costs
// one bounded probe, never a job's or a caller's deadline.
const probeTimeout = 5 * time.Second

// probe reads a worker's slot capacity from its health endpoint.
func (c *Coordinator) probe(base string) (int, error) {
	c.mProbesDone.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	var health struct {
		Slots int `json:"slots"`
	}
	if err := httpjson.Call(ctx, c.client, http.MethodGet, base+"/healthz", nil, &health, maxReplyLen); err != nil {
		return 0, fmt.Errorf("healthz: %w", err)
	}
	if health.Slots < 1 {
		return 0, fmt.Errorf("worker reports %d slots", health.Slots)
	}
	return health.Slots, nil
}

// monitor is the fleet liveness loop: each tick it probes every worker
// it has not heard from within one heartbeat interval. Probes run
// concurrently, each on its own probeTimeout context, so one hung
// worker delays nothing but its own verdict.
func (c *Coordinator) monitor() {
	defer close(c.monitorDone)
	ticker := time.NewTicker(c.hbInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.monitorStop:
			return
		case <-ticker.C:
			c.sweep()
		}
	}
}

// sweep probes stale workers concurrently and records the verdicts.
func (c *Coordinator) sweep() {
	now := time.Now()
	stale := c.reg.stale(c.hbInterval, now)
	if len(stale) == 0 {
		return
	}
	var wg sync.WaitGroup
	for _, w := range stale {
		wg.Add(1)
		go func(w *workerRef) {
			defer wg.Done()
			slots, err := c.probe(w.base)
			if err != nil {
				c.mProbeFails.Add(1)
				c.reg.reportFailure(w)
				return
			}
			c.reg.probeOK(w, slots, time.Now())
		}(w)
	}
	wg.Wait()
}

// BoardTraffic reports the cumulative body bytes of the exchange
// relay: rx the replies it read, tx the requests it sent — the
// board bytes metrics the telemetry sampler records.
func (c *Coordinator) BoardTraffic() (rx, tx int64) {
	return c.mBoardRx.Load(), c.mBoardTx.Load()
}

// BoardHTTPSyncs reports how many relay calls the coordinator has made.
func (c *Coordinator) BoardHTTPSyncs() int64 {
	return c.mBoardSyncs.Load()
}

// Name identifies the backend in service logs and metrics.
func (c *Coordinator) Name() string {
	return fmt.Sprintf("dist(%d workers)", c.reg.size())
}

// Slots returns the fleet's dispatchable walker-slot capacity: healthy
// and suspect workers count, dead and draining do not. It moves as the
// fleet does; the serving layer tracks it through NotifyCapacity.
func (c *Coordinator) Slots() int {
	return c.reg.capacity()
}

// Workers returns a snapshot of the registered fleet.
func (c *Coordinator) Workers() []WorkerInfo {
	return c.reg.snapshot()
}

// NotifyCapacity installs a callback invoked (without locks held)
// whenever fleet membership or capacity changes — the serving layer's
// cue to resize its admission pool. One callback; later calls replace
// earlier ones.
func (c *Coordinator) NotifyCapacity(f func()) {
	c.reg.setOnChange(f)
}

// BackendMetrics exposes the fleet and recovery counters to the
// serving layer's Stats (structurally, like service.Backend itself).
func (c *Coordinator) BackendMetrics() map[string]int64 {
	healthy, suspect, dead, draining := c.reg.counts()
	return map[string]int64{
		"fleet_workers":          int64(c.reg.size()),
		"fleet_healthy":          int64(healthy),
		"fleet_suspect":          int64(suspect),
		"fleet_dead":             int64(dead),
		"fleet_draining":         int64(draining),
		"fleet_slots":            int64(c.reg.capacity()),
		"fleet_joins":            c.reg.mJoins.Load(),
		"fleet_leaves":           c.reg.mLeaves.Load(),
		"fleet_probe_failures":   c.mProbeFails.Load(),
		"fleet_probes":           c.mProbesDone.Load(),
		"shards_lost":            c.mLostShards.Load(),
		"shards_recovered":       c.mRecShards.Load(),
		"walkers_recovered":      c.mRecWalkers.Load(),
		"recovery_rounds":        c.mRecRounds.Load(),
		"dispatch_failovers":     c.mFailovers.Load(),
		"jobs_truncated_by_loss": c.mTruncations.Load(),
		"speculations_launched":  c.mSpecLaunched.Load(),
		"speculations_won":       c.mSpecWon.Load(),
		"speculations_lost":      c.mSpecLost.Load(),
		"speculations_cancelled": c.mSpecCancelled.Load(),
		// The paper's own mechanism: cancel RPCs a solved shard sent to
		// the job's other shards, and how many of them interrupted a run
		// that was still live (the rest found it already finished).
		"first_solution_cancels_sent":  c.mFirstSent.Load(),
		"first_solution_cancels_acked": c.mFirstAcked.Load(),
	}
}

// Close releases the coordinator: the liveness monitor stops and the
// fleet client's keep-alive connections are released when the
// coordinator built the client itself; a caller-supplied Client stays
// the caller's to close. Runs in flight keep their slot reservations
// until they unwind.
func (c *Coordinator) Close() {
	c.monitorOnce.Do(func() { close(c.monitorStop) })
	<-c.monitorDone
	if c.ownsClient {
		c.client.CloseIdleConnections()
	}
}

// Run executes the job in wall-clock mode: every shard's walkers run
// concurrently on their worker, and the first shard to report a
// solution triggers cancel RPCs to the rest ("no communication between
// the simultaneous computations except for completion").
func (c *Coordinator) Run(ctx context.Context, job JobSpec) (multiwalk.Result, error) {
	return c.run(ctx, ModeRun, job)
}

// RunVirtual executes the job in deterministic virtual mode: every
// walker runs to completion and the fewest-iterations walker wins.
// The merged result is bit-for-bit identical to a single-process
// multiwalk.RunVirtual with the same (problem, options, seed), which
// TestDistributedVirtualMatrix pins. Nothing but tests calls it.
func (c *Coordinator) RunVirtual(ctx context.Context, job JobSpec) (multiwalk.Result, error) {
	return c.run(ctx, ModeVirtual, job)
}

// RunJob adapts the coordinator to the service.Backend contract. The
// factory is ignored — workers build their own problem instances from
// the registry — and the options' Progress hook, which cannot stream
// across processes, is replayed from the final per-walker statistics
// so the scheduler's throughput counters stay truthful. Walkers that
// never ran (Iterations 0, Cost core.CostUnknown) are skipped — the
// sentinel is never replayed as a real cost.
func (c *Coordinator) RunJob(ctx context.Context, problem string, size int, params map[string]int, factory problems.Factory, opts multiwalk.Options) (multiwalk.Result, error) {
	_ = factory
	res, err := c.Run(ctx, JobSpec{
		Problem:  problem,
		Size:     size,
		Params:   params,
		Walkers:  opts.Walkers,
		Seed:     opts.Seed,
		Engine:   opts.Engine,
		Exchange: opts.Exchange,
	})
	if err == nil && opts.Progress != nil {
		for _, ws := range res.Walkers {
			if ws.Result.Iterations > 0 && ws.Result.Cost != core.CostUnknown {
				opts.Progress(ws.Walker, ws.Result.Iterations, ws.Result.Cost)
			}
		}
	}
	return res, err
}

// assignment is one shard placed on one worker.
type assignment struct {
	worker   *workerRef
	start    int
	count    int
	reserved int
	released bool // written under registry.mu, by the job's loop only
	runID    string
	held     uint64 // the jobBoard generation the copy holds (exchange jobs)
}

// shardOutcome is the terminal state of one shard request.
type shardOutcome struct {
	res  multiwalk.Result
	lost bool  // transport-level loss: no stats came back
	err  error // application-level rejection (bad options)
}

// lostRange is a run of global walker indices whose shard was lost.
type lostRange struct {
	start, count int
}

func (c *Coordinator) run(ctx context.Context, mode string, job JobSpec) (multiwalk.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if job.Walkers < 1 {
		return multiwalk.Result{}, fmt.Errorf("dist: Walkers must be >= 1, got %d", job.Walkers)
	}
	if job.Engine.Monitor != nil {
		return multiwalk.Result{}, errors.New("dist: engine Monitor hooks cannot cross process boundaries")
	}
	if job.Exchange.Enabled {
		if mode != ModeRun {
			return multiwalk.Result{}, errExchangeVirtual
		}
		// Caught here, before slots are reserved, rather than by every
		// worker's request validation.
		if err := job.Exchange.Validate(); err != nil {
			return multiwalk.Result{}, fmt.Errorf("%w: exchange: %v", ErrBadRequest, err)
		}
	}

	plan, err := c.plan(mode, job.Walkers)
	if err != nil {
		return multiwalk.Result{}, err
	}
	// Safety net for early returns; the normal path releases each
	// shard's reservation the moment its outcome is in (releases are
	// idempotent), so recovery rounds see the freed capacity.
	defer c.releaseAll(plan)

	start := time.Now()
	jobID := fmt.Sprintf("%s-job%06d", c.epoch, c.seq.Add(1))

	// A dependent job's best configuration lives in its loop, which
	// relays it between the shards (jobBoard, fleetJob.relay).
	var board *jobBoard
	if job.Exchange.Enabled {
		// The probe verifies every claim a shard sends back (see
		// jobBoard.merge); building it here also validates the job's
		// problem/size coordinator-side.
		probe, err := problems.NewWithParams(job.Problem, job.Size, job.Params)
		if err != nil {
			return multiwalk.Result{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		board = &jobBoard{probe: probe}
	}

	// Pre-cancelled caller: don't contact the fleet at all — report
	// the walkers as never-run, exactly like a pre-cancelled RunVirtual
	// sweep reports its unrun tail.
	if ctx.Err() != nil {
		shards := make([]multiwalk.Result, len(plan))
		for i := range plan {
			shards[i] = lostShardResult(plan[i].start, plan[i].count)
		}
		res, err := multiwalk.CombineShards(job.Walkers, shards...)
		if err != nil {
			return multiwalk.Result{}, err
		}
		res.Elapsed = time.Since(start)
		return res, nil
	}

	// Shard requests are detached from the caller's context:
	// cancellation is delivered as cancel RPCs, so the workers answer
	// with their partial statistics instead of losing them to an
	// aborted connection. If a worker sits on its response past the
	// grace period (or the cancel RPC raced the run registration), the
	// hard cancel severs the connection — and the worker-side DeadlineMS
	// bound reaps the run itself.
	reqCtx, hardCancel := context.WithCancel(context.WithoutCancel(ctx))
	defer hardCancel()
	j := fleetJob{c: c, mode: mode, job: &job, reqCtx: reqCtx, hardCancel: hardCancel,
		in: inbox{events: make(chan event), done: make(chan struct{})}, callerDone: ctx.Done(), board: board}
	if board != nil {
		j.relayTick = c.after(c.boardSync)
	}
	defer func() {
		// Posts still in flight are dropped, and the backups still
		// running give back their reservations (the hard cancel severs
		// their calls).
		close(j.in.done)
		for _, b := range j.backups {
			c.releaseOne(b)
		}
	}()
	params := shardParams{deadline: deadlineMS(ctx)}

	// Straggler speculation reads the plan's progress from the workers,
	// so its shard requests ask them to keep counters. Virtual mode is
	// excluded (its shards are sequential sweeps whose runtimes are the
	// experiment itself), as are single-shard jobs (no median to lag
	// behind).
	params.progress = c.speculate && mode == ModeRun && len(plan) >= 2

	// One loop over dispatch rounds: round 0 runs the plan, and round
	// r >= 1 re-runs what the rounds before it lost on surviving healthy
	// workers. Global walker identity (Shard.Start/Total against the
	// whole job) makes a re-run bit-for-bit identical to the run the
	// lost worker would have produced, so the determinism contract holds
	// across failures. No round follows when the caller cancelled (the
	// "loss" is our own hard cancel severing connections) or when a
	// wall-clock run already solved (losers are stopped, not
	// resurrected), and none when the retry budget or the fleet's
	// healthy capacity runs out — only then does the job truncate.
	shards := make([]multiwalk.Result, 0, len(plan))
	var lost []lostRange
	prefix := jobID
	for round := 0; ; round++ {
		if round > 0 {
			if len(lost) == 0 || round > c.recoverAttempts || ctx.Err() != nil || j.won {
				break
			}
			// lost keeps what the re-plan cannot place; the round's own
			// losses join it below.
			plan, lost = c.planRecovery(mode, lost)
			if len(plan) == 0 {
				break
			}
			c.mRecRounds.Add(1)
			prefix = fmt.Sprintf("%s-r%d", jobID, round)
			// Recovery shards re-run a known range on a fresh worker;
			// their runtimes carry no straggler signal, so they do not
			// speculate — and they see the deadline budget that remains
			// now, not the one the job started with.
			params.progress = false
			params.deadline = deadlineMS(ctx)
		}
		slots := j.round(plan, prefix, &params)
		for i := range slots {
			out, a := &slots[i].outcome, &plan[i]
			if out.err != nil {
				return multiwalk.Result{}, fmt.Errorf("dist: worker %s: %w", a.worker.base, out.err)
			}
			if out.lost {
				if round == 0 {
					c.mLostShards.Add(1) // shards_lost counts the plan's shards only
				}
				lost = append(lost, lostRange{a.start, a.count})
				continue
			}
			if round > 0 {
				c.mRecShards.Add(1)
				c.mRecWalkers.Add(int64(a.count))
			}
			shards = append(shards, out.res)
		}
	}

	anyLost := len(lost) > 0
	for _, lr := range lost {
		shards = append(shards, lostShardResult(lr.start, lr.count))
	}
	res, err := multiwalk.CombineShards(job.Walkers, shards...)
	if err != nil {
		// A worker violated the protocol (wrong or duplicate walker
		// indices). Surface it as an error, never as a fabricated run.
		return multiwalk.Result{}, fmt.Errorf("dist: inconsistent shard stats: %w", err)
	}
	switch {
	case mode == ModeRun && res.Solved:
		// Losers interrupted after the winner's cancel are the normal
		// completion mechanism, exactly as in multiwalk.Run: a solved
		// wall-clock run is never truncated (a lost loser leaves its
		// mark in Completed < Walkers instead). Virtual mode keeps
		// sticky truncation — a walker that never ran to completion
		// taints the deterministic winner even when another solved,
		// matching RunVirtual's mid-sweep cancellation semantics.
		res.Truncated = false
	case anyLost:
		res.Truncated = true
		c.mTruncations.Add(1)
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// shardParams bundles the per-job request fields that are not the
// job's own, shared by every shard dispatch (initial plan and recovery
// rounds alike).
type shardParams struct {
	deadline int64
	// progress marks a speculating round: its shards keep counters for
	// the straggler detector to read.
	progress bool
}

// shardRequest builds one shard's run request from the job, the
// assignment and the shared per-job parameters — the single place
// primary, backup and recovery dispatches derive their wire requests
// from.
func shardRequest(mode string, job *JobSpec, a *assignment, p *shardParams) RunRequest {
	return RunRequest{
		ID:           a.runID,
		Mode:         mode,
		Problem:      job.Problem,
		Size:         job.Size,
		Params:       job.Params,
		Seed:         job.Seed,
		TotalWalkers: job.Walkers,
		Start:        a.start,
		Count:        a.count,
		Engine:       job.Engine,
		DeadlineMS:   p.deadline,
		Exchange:     job.Exchange,
		Progress:     p.progress,
	}
}

// deadlineMS converts the context's remaining budget to the worker-side
// deadline field (0 = none), so an orphaned shard self-terminates even
// if the coordinator dies without delivering a cancel.
func deadlineMS(ctx context.Context) int64 {
	dl, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	ms := time.Until(dl).Milliseconds()
	if ms < 1 {
		ms = 1
	}
	return ms
}

// fleetJob is one job's state while it runs: the current round's
// slots, first-solution and cancellation state, the grace timer, the
// straggler detector and an exchange job's relay. One goroutine owns
// all of it, the caller's own in run; every other goroutine of the job
// makes one HTTP call (a run, a cancel, a progress read or a relay
// call) and posts what it got, so nothing here is locked.
type fleetJob struct {
	c          *Coordinator
	mode       string
	job        *JobSpec
	reqCtx     context.Context
	hardCancel context.CancelFunc
	in         inbox

	// The current round: its slots, how many are unresolved, the prefix
	// of its run ids and its request parameters.
	slots  []specSlot
	open   int
	prefix string
	params *shardParams

	callerDone <-chan struct{} // ctx.Done(); nil once handled
	cancelled  bool            // by the caller: no backup launches
	won        bool            // a run-mode shard came back solved
	grace      <-chan time.Time

	// The detector's next tick, how many of the last tick's progress
	// reads are out, and every backup it launched (released when run
	// returns).
	tick    <-chan time.Time
	reads   int
	backups []*assignment

	// An exchange job's best (nil for an independent job), the relay's
	// next tick, and how many of the last tick's relay calls are out.
	// The relay spans the job's rounds.
	board     *jobBoard
	relayTick <-chan time.Time
	relays    int
}

// event is what one HTTP call of a job found about copy from of slot.
type event struct {
	kind  eventKind
	slot  *specSlot
	from  *assignment
	out   shardOutcome // evOutcome
	iters int64        // evProgress
	gen   uint64       // evRelay: the board generation the call delivered, 0 if it failed
	reply BoardSync    // evRelay: the worker's answer
}

type eventKind uint8

const (
	evOutcome        eventKind = iota // the copy's run call returned
	evProgress                        // a read of the copy's progress returned
	evLoserCancelled                  // the worker acked a speculation loser's cancel
	evRelay                           // a relay call to the copy returned
)

// inbox is a job loop's event channel, and done, closed when run
// returns, so that a call still in flight then does not block posting.
type inbox struct {
	events chan event
	done   chan struct{}
}

func (in inbox) post(ev event) {
	select {
	case in.events <- ev:
	case <-in.done:
	}
}

// round dispatches plan as one round of the job, run ids under prefix,
// and runs the job's loop until every slot of the round has resolved;
// it returns the slots in plan order. A copy's reservation is released
// the moment its outcome is in, so a later round plans into the freed
// capacity, and a solved outcome of a wall-clock job stops every other
// copy of the round. In a speculating round (p.progress) the detector
// reads the copies' progress and gives a lagging slot one backup copy.
// A loser still in flight is NOT waited for: the stalled worker is the
// very thing being routed around, and run's hard cancel severs it when
// the job returns.
func (j *fleetJob) round(plan []assignment, prefix string, p *shardParams) []specSlot {
	j.slots, j.open, j.prefix, j.params = make([]specSlot, len(plan)), len(plan), prefix, p
	for i := range plan {
		plan[i].runID = fmt.Sprintf("%s-s%d", prefix, i)
		j.slots[i] = specSlot{primary: &plan[i], inflight: 1}
		j.launch(&j.slots[i], &plan[i])
	}
	if p.progress {
		j.tick = j.c.after(j.c.specAfter)
	}
	for j.open > 0 {
		select {
		case ev := <-j.in.events:
			j.handle(ev)
		case <-j.callerDone:
			j.callerDone, j.cancelled = nil, true
			j.stop(false)
		case <-j.grace:
			j.hardCancel()
		case <-j.tick:
			j.readProgress()
		case <-j.relayTick:
			j.relayTick = nil
			j.relay()
		}
	}
	j.tick = nil
	return j.slots
}

// launch starts copy a of slot s: one run call, posted as its outcome.
func (j *fleetJob) launch(s *specSlot, a *assignment) {
	c, ctx, in, mode, job, p := j.c, j.reqCtx, j.in, j.mode, j.job, j.params
	go func() {
		in.post(event{kind: evOutcome, slot: s, from: a, out: c.runShard(ctx, a, shardRequest(mode, job, a, p))})
	}()
}

// handle applies one event to the job. A progress reading from an
// earlier round is dropped (only a plan round speculates); the last
// reading of a tick runs the detector and arms the next tick.
func (j *fleetJob) handle(ev event) {
	c := j.c
	switch ev.kind {
	case evRelay:
		j.relayed(ev)
		return
	case evProgress:
		if j.params.progress {
			ev.slot.seen = max(ev.slot.seen, ev.iters)
			if j.reads--; j.reads == 0 {
				j.detect()
				j.tick = c.after(c.specInterval)
			}
		}
		return
	}
	c.releaseOne(ev.from)
	if ev.kind == evLoserCancelled {
		return
	}
	resolved, final, loser := c.deliverSpec(ev.slot, ev.from, ev.out)
	if !resolved {
		return
	}
	j.open--
	if loser != nil {
		j.cancelLoser(loser)
	}
	if j.mode == ModeRun && final.res.Solved && !j.won {
		j.won = true
		j.stop(true)
	}
}

// stop sends a best-effort cancel RPC to every copy of the round still
// in flight and arms the grace timer behind them, once a job; a round
// with no other copy has nobody to cancel and arms nothing. first marks
// first-solution termination, the first solved shard of the job
// stopping the rest of its round (the rounds before it have resolved);
// otherwise the caller cancelled. Cancel RPCs, not aborted connections,
// so the losers still deliver their partial statistics.
func (j *fleetJob) stop(first bool) {
	c := j.c
	for i := range j.slots {
		for _, a := range [2]*assignment{j.slots[i].primary, j.slots[i].backup} {
			if a == nil || a.released {
				continue
			}
			if j.grace == nil {
				j.grace = c.after(cancelGrace)
			}
			if !first {
				go c.cancelRun(a)
				continue
			}
			c.mFirstSent.Add(1)
			go func() {
				if _, live := c.cancelRun(a); live {
					c.mFirstAcked.Add(1)
				}
			}()
		}
	}
}

// lostShardResult synthesizes the stats of walkers [start, start+count)
// whose shard was lost past recovery: each walker keeps its global
// identity and carries an empty Interrupted result stamped
// core.CostUnknown — never fabricated work, and never a cost a consumer
// may aggregate.
func lostShardResult(start, count int) multiwalk.Result {
	stats := make([]multiwalk.WalkerStat, count)
	for i := range stats {
		stats[i] = multiwalk.WalkerStat{Walker: start + i, Result: core.Result{Interrupted: true, Cost: core.CostUnknown}}
	}
	return multiwalk.Result{Winner: -1, Walkers: stats, Completed: 0, Truncated: true}
}

// plan partitions k walkers over the fleet's free capacity and
// reserves the slots it uses (healthy and suspect workers; dead and
// draining are excluded). ModeRun fills greedily, at most free-slot
// walkers per worker (they run concurrently); a job that fits the
// fleet's total free capacity always fits, because shards split at
// arbitrary boundaries. ModeVirtual reserves one slot per participating
// worker (shards run sequentially) and splits the walkers
// proportionally to worker capacity, so the slowest shard — the
// distributed collection's wall-clock — is balanced.
func (c *Coordinator) plan(mode string, k int) ([]assignment, error) {
	r := c.reg
	r.mu.Lock()
	defer r.mu.Unlock()

	if mode == ModeRun {
		plan, placed := fill(r.workers, nil, 0, k, true)
		if placed < k {
			for _, a := range plan {
				a.worker.busy -= a.reserved
			}
			return nil, fmt.Errorf("%w: job needs %d walkers, fleet has %d free slots", ErrNoCapacity, k, placed)
		}
		return plan, nil
	}

	var eligible []*workerRef
	weight := 0
	for _, w := range r.workers {
		if (w.state == stateHealthy || w.state == stateSuspect) && w.slots-w.busy >= 1 {
			eligible = append(eligible, w)
			weight += w.slots
		}
	}
	if len(eligible) == 0 {
		return nil, fmt.Errorf("%w: no worker has a free slot", ErrNoCapacity)
	}
	// Largest-remainder proportional split, ties to earlier workers;
	// zero-walker workers drop out of the plan.
	counts := make([]int, len(eligible))
	assigned := 0
	for i, w := range eligible {
		counts[i] = k * w.slots / weight
		assigned += counts[i]
	}
	for i := 0; assigned < k; i = (i + 1) % len(eligible) {
		counts[i]++
		assigned++
	}
	var plan []assignment
	next := 0
	for i, w := range eligible {
		if counts[i] == 0 {
			continue
		}
		w.busy++
		plan = append(plan, assignment{worker: w, start: next, count: counts[i], reserved: 1})
		next += counts[i]
	}
	return plan, nil
}

// planRecovery re-plans lost walker ranges onto healthy workers with
// free capacity, reserving the slots it takes. Suspect workers are
// excluded — the failure that made them suspect is usually the one
// being recovered from. A run-mode range fills greedily; a virtual-mode
// range stays whole, on one slot of the most-free worker (its walkers
// run sequentially). Ranges (or range tails) that find no capacity come
// back as uncovered, so an empty plan means nothing could be placed;
// the caller truncates them after the retry budget is spent.
func (c *Coordinator) planRecovery(mode string, lost []lostRange) (plan []assignment, uncovered []lostRange) {
	r := c.reg
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, lr := range lost {
		end := lr.start + lr.count
		if mode == ModeVirtual {
			if a, ok := mostFree(r.workers, lr.start, lr.count, 1, nil); ok {
				plan = append(plan, a)
			} else {
				uncovered = append(uncovered, lr)
			}
			continue
		}
		var next int
		plan, next = fill(r.workers, plan, lr.start, end, false)
		if next < end {
			uncovered = append(uncovered, lostRange{next, end - next})
		}
	}
	return plan, uncovered
}

// fill places walkers [next, end) greedily in join order, each healthy
// worker (and suspect one, with suspectOK) taking as many as it has
// free slots, and reserves them. It returns plan extended with the new
// assignments and the first walker left unplaced (end when all fit).
// Callers hold reg.mu.
func fill(workers []*workerRef, plan []assignment, next, end int, suspectOK bool) ([]assignment, int) {
	for _, w := range workers {
		if next == end {
			break
		}
		if w.state != stateHealthy && !(suspectOK && w.state == stateSuspect) {
			continue
		}
		take := min(end-next, w.slots-w.busy)
		if take <= 0 {
			continue
		}
		w.busy += take
		plan = append(plan, assignment{worker: w, start: next, count: take, reserved: take})
		next += take
	}
	return plan, next
}

// mostFree places walkers [start, start+count) whole on the healthy
// worker other than exclude with the most free slots, at least need of
// them (ties to the earlier joiner), and reserves need slots there. ok
// is false when no worker qualifies. Callers hold reg.mu.
func mostFree(workers []*workerRef, start, count, need int, exclude *workerRef) (a assignment, ok bool) {
	var best *workerRef
	for _, w := range workers {
		if w == exclude || w.state != stateHealthy || w.slots-w.busy < need {
			continue
		}
		if best == nil || w.slots-w.busy > best.slots-best.busy {
			best = w
		}
	}
	if best == nil {
		return assignment{}, false
	}
	best.busy += need
	return assignment{worker: best, start: start, count: count, reserved: need}, true
}

// releaseOne returns one assignment's slot reservation; idempotent.
func (c *Coordinator) releaseOne(a *assignment) {
	r := c.reg
	r.mu.Lock()
	defer r.mu.Unlock()
	if !a.released {
		a.released = true
		a.worker.busy -= a.reserved
	}
}

// releaseAll returns every not-yet-released reservation in plan.
func (c *Coordinator) releaseAll(plan []assignment) {
	for i := range plan {
		c.releaseOne(&plan[i])
	}
}

// runShard posts one shard run and waits for its statistics. The
// worker's health is re-validated against the registry at dispatch
// time — plan-time snapshots go stale in an elastic fleet — and a
// worker that went dead or draining in the gap is failed over (the
// shard reports lost, flowing into recovery) instead of erroring the
// job.
func (c *Coordinator) runShard(ctx context.Context, a *assignment, reqBody RunRequest) shardOutcome {
	if !c.reg.dispatchable(a.worker) {
		c.mFailovers.Add(1)
		return shardOutcome{lost: true}
	}
	// The request is written into a buffer on the stack and sent as a
	// copy, so it reaches the heap boxed only when AppendJSON declines
	// it (exchange, or a float json.Marshal refuses) and Call encodes
	// it with encoding/json.
	var stack [512]byte
	var in any
	if b := reqBody.AppendJSON(stack[:0]); len(b) > 0 {
		in = bytes.Clone(b)
	} else {
		in = reqBody
	}
	var wire RunResponse
	err := httpjson.Call(ctx, c.client, http.MethodPost, a.worker.base+"/v1/run", in, &wire, runReplyCap(reqBody.Count))
	if err == nil {
		return shardOutcome{res: resultFromWire(wire)}
	}
	var lost *url.Error
	if errors.As(err, &lost) {
		// Transport loss: connection refused, reset mid-run, context
		// cancelled. No stats came back — the shard is lost. Mark the
		// worker so recovery plans around it; the next successful probe
		// or register restores it.
		c.reg.reportFailure(a.worker)
		return shardOutcome{lost: true}
	}
	var status *httpjson.StatusError
	if errors.As(err, &status) && status.Msg != "" &&
		(status.Code == http.StatusBadRequest || status.Code == http.StatusTooManyRequests) {
		// The worker understood us and said no: an application
		// error the caller must see (bad options reject the whole
		// job; capacity conflicts mean a mis-shared fleet).
		return shardOutcome{err: errors.New(status.Msg)}
	}
	// Any other status, or a reply that does not read.
	return shardOutcome{lost: true}
}

// maxReplyLen bounds a worker's health, cancel and progress replies;
// each is a few dozen bytes.
const maxReplyLen = 64 << 10

// maxStatLen bounds one walker's stat in a run reply, its solution
// aside (sixteen members, each number at most 20 bytes), and the
// reply's own members around its stats.
const maxStatLen = 512

// runReplyCap bounds a worker's reply to a run of count walkers: count
// stats, each with at most one solution of at most maxInitialConfig
// values. A value of any instance the registry builds has at most seven
// digits (magic-square's reach 1<<20 at its MaxSize), eight bytes with
// its comma. A longer reply is refused after cap+1 bytes, and its shard
// is lost.
func runReplyCap(count int) int64 {
	return int64(count)*(maxStatLen+8*maxInitialConfig) + maxStatLen
}

// cancelGrace is how long the coordinator waits, after delivering
// cancel RPCs, for workers to flush their partial statistics before it
// severs the connections.
const cancelGrace = 30 * time.Second

// cancelRun delivers one best-effort cancel RPC on its own bounded
// background context. acked reports that the worker answered 200, live
// that the cancel interrupted a run still in flight (a finished or
// not-yet-registered run answers cancelled: false).
func (c *Coordinator) cancelRun(a *assignment) (acked, live bool) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var ack cancelAck
	if err := httpjson.Call(ctx, c.client, http.MethodPost, a.worker.base+"/v1/runs/"+a.runID+"/cancel", nil, &ack, maxReplyLen); err != nil {
		return false, false
	}
	return true, ack.Cancelled
}
