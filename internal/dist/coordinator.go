package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/multiwalk"
	"repro/internal/problems"
)

// CoordinatorConfig configures a coordinator over a worker fleet.
type CoordinatorConfig struct {
	// Workers lists worker base URLs (e.g. "http://10.0.0.7:9101")
	// enrolled statically at construction time; each is probed for its
	// slot capacity. With Dynamic set the list may be empty — workers
	// join at runtime through the fleet registration endpoints.
	Workers []string
	// Dynamic allows an empty initial fleet and enables runtime
	// membership: workers register, heartbeat and drain through
	// FleetHandler. Static workers and dynamic joiners share one
	// registry, so mixing both is fine.
	Dynamic bool
	// Client is the HTTP client used for all worker traffic. nil
	// selects a dedicated client with no global timeout (run requests
	// are long-polls bounded by their context).
	Client *http.Client
	// ProbeTimeout bounds every health probe — enrollment, runtime
	// registration and the monitor's liveness sweeps. Each probe gets
	// its own independent context with this timeout, so one hung worker
	// can never eat a job deadline or stall the sweep. 0 selects 5s.
	ProbeTimeout time.Duration
	// HeartbeatInterval is the monitor's sweep period: workers not
	// heard from (push heartbeat or probe) within one interval are
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
	// BoardAddr is the listen address of the coordinator's global
	// exchange-board server, which workers sync against during
	// dependent (Exchange) jobs. Empty selects 127.0.0.1:0 — correct
	// for single-host fleets and tests. The server starts lazily on the
	// first exchange-enabled job, so independent-only fleets never open
	// the port.
	BoardAddr string
	// BoardAdvertise is the base URL workers use to reach the board
	// server (e.g. "http://10.0.0.1:9190"). Empty derives it from the
	// listener address; set it explicitly when workers are on other
	// hosts or behind NAT.
	BoardAdvertise string
	// BoardSync is the period at which worker-side board caches
	// reconcile with the global board, stamped into every exchange
	// shard's request. 0 selects 50ms.
	BoardSync time.Duration
	// Speculate enables straggler speculation for wall-clock (Run mode)
	// jobs: workers report per-shard progress, a detector compares each
	// running shard against the job's median, and a shard lagging past
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
	// SpeculateInterval is the detector's evaluation period. 0 selects
	// 500ms.
	SpeculateInterval time.Duration
	// ProgressInterval is the per-shard progress report cadence stamped
	// into speculation-enabled run requests. 0 lets each worker apply
	// its default (250ms).
	ProgressInterval time.Duration
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
	// Engine holds the per-walker engine options (Portfolio overrides
	// it, exactly as in multiwalk.Options).
	Engine core.Options
	// Portfolio, when non-empty, runs a heterogeneous portfolio with
	// entries assigned by global walker index.
	Portfolio []multiwalk.PortfolioEntry
	// Exchange, when Enabled, runs the job in the dependent
	// (communicating) multi-walk scheme: the coordinator hosts a global
	// elite board and every worker shard cooperates through it, so
	// adoptions cross process boundaries. Run mode only; dependent runs
	// are timing-dependent by nature (see DESIGN.md §10), unlike the
	// bit-for-bit deterministic independent modes.
	Exchange multiwalk.ExchangeOptions
}

// Coordinator shards multi-walk jobs over a fleet of workers. It
// implements the same contract as multiwalk.Run / RunVirtual — walker
// identity, portfolio assignment and the min-iterations virtual winner
// are bit-for-bit those of the single-process run — and satisfies
// service.Backend, so a Scheduler can serve its traffic from the fleet
// (cmd/serve -workers / -fleet).
//
// Fleet membership is dynamic: workers join statically (config) or at
// runtime (FleetHandler registration), push heartbeats, and leave by
// draining. A background monitor probes workers it has not heard from,
// and a shard lost to a worker failure is re-planned onto surviving
// healthy workers and re-run — global walker identity makes the re-run
// bit-for-bit identical — before the job is ever truncated.
type Coordinator struct {
	client     *http.Client
	ownsClient bool // client was built here, so Close releases it
	reg        *registry

	probeTimeout    time.Duration
	hbInterval      time.Duration
	recoverAttempts int

	// epoch, drawn once at random, leads every run id, board id and
	// progress key, and seq numbers the jobs behind it. Workers outlive
	// coordinators and remember run ids (Worker.early), so the ids of two
	// coordinators must not meet although both count from 1.
	epoch string
	seq   atomic.Uint64

	boards      *boardHub
	boardSyncMS int64

	speculate     bool
	specThreshold float64
	specAfter     time.Duration
	specInterval  time.Duration
	progInterval  time.Duration

	// prog is the straggler detector's input: one entry per tracked
	// in-flight shard run, fed by worker progress reports and finalized
	// from the shard's own outcome when it resolves.
	progMu sync.Mutex
	prog   map[string]*shardProg

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
	if len(cfg.Workers) == 0 && !cfg.Dynamic {
		return nil, errors.New("dist: coordinator needs at least one worker URL")
	}
	client := cfg.Client
	ownsClient := client == nil
	if ownsClient {
		client = newFleetClient(len(cfg.Workers))
	}
	probeTimeout := cfg.ProbeTimeout
	if probeTimeout <= 0 {
		probeTimeout = 5 * time.Second
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
		probeTimeout:    probeTimeout,
		hbInterval:      hbInterval,
		recoverAttempts: recoverAttempts,
		boards:          newBoardHub(cfg.BoardAddr, cfg.BoardAdvertise),
		boardSyncMS:     max(cfg.BoardSync.Milliseconds(), 1),
		speculate:       cfg.Speculate,
		specThreshold:   specThreshold,
		specAfter:       specAfter,
		specInterval:    specInterval,
		progInterval:    cfg.ProgressInterval,
		prog:            make(map[string]*shardProg),
		monitorStop:     make(chan struct{}),
		monitorDone:     make(chan struct{}),
	}
	c.boards.onShardProgress = c.recordShardProgress
	now := time.Now()
	for _, base := range cfg.Workers {
		slots, err := c.probe(base, probeTimeout)
		if err != nil {
			if ownsClient {
				client.CloseIdleConnections()
			}
			return nil, fmt.Errorf("dist: enrolling worker %s: %w", base, err)
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

// probe reads a worker's slot capacity from its health endpoint. Every
// probe runs on its own short timeout context, independent of any job
// deadline — a hung worker costs one bounded probe, never the job.
func (c *Coordinator) probe(base string, timeout time.Duration) (int, error) {
	c.mProbesDone.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var health struct {
		Slots int `json:"slots"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		return 0, fmt.Errorf("decoding healthz: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("healthz status %d", resp.StatusCode)
	}
	if health.Slots < 1 {
		return 0, fmt.Errorf("worker reports %d slots", health.Slots)
	}
	return health.Slots, nil
}

// monitor is the fleet liveness loop: each tick it probes every worker
// it has not heard from within one heartbeat interval. Probes run
// concurrently, each on its own ProbeTimeout context, so one hung
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
			slots, err := c.probe(w.base, c.probeTimeout)
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

// BoardTraffic reports the cumulative exchange-board sync body bytes
// moved each way — the board-sync bytes metric the telemetry sampler
// records.
func (c *Coordinator) BoardTraffic() (rx, tx int64) {
	return c.boards.traffic()
}

// BoardHTTPSyncs reports how many board sync POSTs the hub has served.
func (c *Coordinator) BoardHTTPSyncs() int64 {
	return c.boards.mHTTPSyncs.Load()
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
	tracked, maxAge := c.progressGauges(time.Now())
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
		"shards_tracked":         tracked,
		"shard_progress_age_ms":  maxAge,
		// The paper's own mechanism: cancel RPCs a solved shard sent to
		// the job's other shards, and how many of them interrupted a run
		// that was still live (the rest found it already finished).
		"first_solution_cancels_sent":  c.mFirstSent.Load(),
		"first_solution_cancels_acked": c.mFirstAcked.Load(),
	}
}

// Close releases the coordinator: the liveness monitor stops, the
// exchange-board server shuts down (its absence degrades in-flight
// dependent runs to independent walks — the scheme's designed failure
// mode) and the fleet client's keep-alive connections are released when
// the coordinator built the client itself; a caller-supplied Client
// stays the caller's to close. Runs in flight keep their slot
// reservations until they unwind.
func (c *Coordinator) Close() {
	c.monitorOnce.Do(func() { close(c.monitorStop) })
	<-c.monitorDone
	c.boards.close()
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
// multiwalk.RunVirtual with the same (problem, options, seed) — the
// property the experiment harness and the golden-trace suite pin.
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
		Problem:   problem,
		Size:      size,
		Params:    params,
		Walkers:   opts.Walkers,
		Seed:      opts.Seed,
		Engine:    opts.Engine,
		Portfolio: opts.Portfolio,
		Exchange:  opts.Exchange,
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
	released bool // guarded by registry.mu
	runID    string
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
	for i := range job.Portfolio {
		if job.Portfolio[i].Engine.Monitor != nil {
			return multiwalk.Result{}, fmt.Errorf("dist: portfolio[%d] carries a Monitor hook, which cannot cross process boundaries", i)
		}
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

	// Dependent jobs get a job-wide global board: every shard receives
	// the same sync URL, so elite configurations flow between workers.
	// The board lives exactly as long as the job — run() waits for all
	// shard responses (including recovery rounds) before releasing it,
	// so no shard ever syncs into a reassigned board.
	var params shardParams
	if job.Exchange.Enabled {
		// The probe instance lets the board server verify every publish
		// against the actual problem (see boardHub.handleSync); building
		// it here also validates the job's problem/size coordinator-side.
		probe, err := problems.NewWithParams(job.Problem, job.Size, job.Params)
		if err != nil {
			return multiwalk.Result{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		url, _, releaseBoard, err := c.boards.open(jobID, probe)
		if err != nil {
			return multiwalk.Result{}, err
		}
		defer releaseBoard()
		params.boardURL, params.boardSyncMS = url, c.boardSyncMS
	}

	// Pre-cancelled caller: don't contact the fleet at all — report
	// the walkers as never-run, exactly like a pre-cancelled RunVirtual
	// sweep reports its unrun tail.
	if ctx.Err() != nil {
		shards := make([]multiwalk.Result, len(plan))
		for i := range plan {
			shards[i] = lostShardResult(plan[i].start, plan[i].count, job)
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
	stop := &jobStop{c: c, hardCancel: hardCancel}
	defer stop.release()
	stopNotify := context.AfterFunc(ctx, stop.cancelAll)
	defer stopNotify()
	params.deadline = deadlineMS(ctx)

	// Straggler speculation needs the progress feed: stamp the report
	// endpoint into every shard request and track the shards. Virtual
	// mode is excluded (its shards are sequential sweeps whose runtimes
	// are the experiment itself), as are single-shard jobs (no median
	// to lag behind).
	speculating := c.speculate && mode == ModeRun && len(plan) >= 2
	if speculating {
		base, err := c.boards.ensureServer()
		if err != nil {
			return multiwalk.Result{}, err
		}
		params.progressBase = base
		params.progressMS = c.progInterval.Milliseconds()
		defer c.clearJobProgress(jobID + "-")
	}

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
	solved := false
	prefix := jobID
	for round := 0; ; round++ {
		if round > 0 {
			if len(lost) == 0 || round > c.recoverAttempts || ctx.Err() != nil || solved {
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
			// their runtimes carry no straggler signal, so they skip the
			// progress feed — and they see the deadline budget that
			// remains now, not the one the job started with.
			params.progressBase, params.progressMS = "", 0
			params.deadline = deadlineMS(ctx)
		}
		slots := c.dispatch(reqCtx, mode, &job, plan, prefix, stop, params)
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
			if mode == ModeRun && out.res.Solved {
				solved = true
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
		shards = append(shards, lostShardResult(lr.start, lr.count, job))
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
	boardURL    string
	boardSyncMS int64
	deadline    int64
	// Progress feed for straggler speculation; empty when the job does
	// not speculate. progressBase is the hub's HTTP base URL (each
	// shard's report route is derived from its run id).
	progressBase string
	progressMS   int64
}

// shardRequest builds one shard's run request from the job, the
// assignment and the shared per-job parameters — the single place
// primary, backup and recovery dispatches derive their wire requests
// from.
func shardRequest(mode string, job *JobSpec, a *assignment, p *shardParams) RunRequest {
	req := RunRequest{
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
		Portfolio:    job.Portfolio,
		DeadlineMS:   p.deadline,
		Exchange:     job.Exchange,
		Board:        p.boardURL,
		BoardSyncMS:  p.boardSyncMS,
	}
	if p.progressBase != "" {
		req.ProgressURL = p.progressBase + "/v1/runs/" + a.runID + "/progress"
		req.ProgressMS = p.progressMS
	}
	return req
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

// jobStop is the stop machinery all of one job's dispatch rounds share:
// the record of every copy of a shard the job launched, the once-guard
// of first-solution termination, and the grace timer that backs every
// cancel fan-out (first solution or caller cancellation) with a hard
// cancel, so a stalled loser — or a cancel RPC that raced the run
// registration — cannot block the job forever.
type jobStop struct {
	c          *Coordinator
	hardCancel context.CancelFunc
	solved     sync.Once

	mu       sync.Mutex
	copies   []*assignment // append-only, so a snapshot of it stays valid
	round    int           // copies[round:] are the current round's
	grace    *time.Timer
	released bool
}

// beginRound starts a dispatch round with the copies of its plan.
func (s *jobStop) beginRound(plan []assignment) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.round = len(s.copies)
	s.copies = slices.Grow(s.copies, len(plan))
	for i := range plan {
		s.copies = append(s.copies, &plan[i])
	}
}

// add records one more copy launched into the current round (a backup).
func (s *jobStop) add(a *assignment) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.copies = append(s.copies, a)
}

// cancelAll is caller cancellation: every copy launched so far, of
// every round, gets a best-effort cancel RPC, and the grace period
// starts.
func (s *jobStop) cancelAll() {
	s.mu.Lock()
	copies := s.copies
	s.mu.Unlock()
	for _, a := range copies {
		go s.c.cancelRun(a)
	}
	s.armGrace()
}

// armGrace starts the grace period, once per job; the first fan-out
// sets the clock.
func (s *jobStop) armGrace() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.grace == nil && !s.released {
		s.grace = time.AfterFunc(cancelGrace, s.hardCancel)
	}
}

// release stops the grace timer when run returns (which hard-cancels on
// its own): a timer left to expire would pin the job's request context
// for the whole grace period, one per solved job.
func (s *jobStop) release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.released = true
	if s.grace != nil {
		s.grace.Stop()
	}
}

// firstSolution is first-solution termination: the first solved shard
// of the job tells every other copy of its round to stop (the rounds
// before it have resolved). Cancel RPCs — not aborted connections — so
// the losers still deliver their partial statistics. Later calls (a
// second shard that solved before its cancel landed) are no-ops, and a
// round with no other copy has nobody to cancel and arms nothing.
func (s *jobStop) firstSolution(winner *assignment) {
	s.solved.Do(func() {
		s.mu.Lock()
		round := s.copies[s.round:]
		s.mu.Unlock()
		for _, a := range round {
			if a == winner {
				continue
			}
			s.armGrace() // with the first cancel; never, when there is none
			s.c.mFirstSent.Add(1)
			go func(a *assignment) {
				if _, live := s.c.cancelRun(a); live {
					s.c.mFirstAcked.Add(1)
				}
			}(a)
		}
	})
}

// dispatch runs one round: every assignment of plan is a first-wins
// slot (specSlot) whose first delivered outcome is the shard's. It
// returns the slots, in plan order, once each has resolved. A copy's
// reservation is released the moment its outcome is in, so a later
// round plans into the freed capacity, and a solved outcome of a
// wall-clock job stops every other copy of the round. Shards that report
// progress (p.progressBase set: the plan of a speculating job) are
// tracked, and a straggler detector gives a lagging slot one backup
// copy. A loser still in flight is NOT waited for: the stalled worker
// is the very thing being routed around, and run's deferred hard cancel
// severs it when the job returns.
func (c *Coordinator) dispatch(ctx context.Context, mode string, job *JobSpec, plan []assignment, prefix string, stop *jobStop, p shardParams) []specSlot {
	tracked := p.progressBase != ""
	slots := make([]specSlot, len(plan))
	var resolved sync.WaitGroup
	resolved.Add(len(plan))
	launch := func(s *specSlot, a *assignment) {
		if tracked {
			c.trackShard(a.runID, a.start, a.count)
		}
		go func() {
			out := c.runShard(ctx, a, shardRequest(mode, job, a, &p))
			c.releaseOne(a)
			resolvedNow, final, loser := c.deliverSpec(s, a, out)
			if !resolvedNow {
				return
			}
			if tracked {
				c.progressDone(a.runID, outcomeIters(&final))
			}
			if loser != nil {
				go c.cancelLoser(loser)
			}
			if mode == ModeRun && final.res.Solved {
				stop.firstSolution(a)
			}
			resolved.Done()
		}()
	}

	for i := range plan {
		plan[i].runID = fmt.Sprintf("%s-s%d", prefix, i)
		slots[i].primary, slots[i].inflight = &plan[i], 1
	}
	stop.beginRound(plan)
	for i := range plan {
		launch(&slots[i], &plan[i])
	}

	if tracked {
		backup := func(i int) {
			s := &slots[i]
			s.mu.Lock()
			resolvedAlready := s.resolved
			s.mu.Unlock()
			if resolvedAlready {
				return
			}
			// The whole range on one worker other than the primary's:
			// first-wins stays pairwise, and a range that fits nowhere
			// simply does not speculate this tick.
			c.reg.mu.Lock()
			b, ok := mostFree(c.reg.workers, s.primary.start, s.primary.count, s.primary.count, s.primary.worker)
			c.reg.mu.Unlock()
			if !ok {
				return
			}
			b.runID = fmt.Sprintf("%s-b1-s%d", prefix, i)
			s.mu.Lock()
			if s.resolved {
				// The primary landed while we were reserving.
				s.mu.Unlock()
				c.releaseOne(&b)
				return
			}
			s.backup = &b
			s.inflight++
			s.mu.Unlock()
			c.mSpecLaunched.Add(1)
			stop.add(&b)
			launch(s, &b)
		}
		done := make(chan struct{})
		defer close(done)
		go c.detectStragglers(ctx, done, job, slots, backup)
	}
	resolved.Wait()
	return slots
}

// lostShardResult synthesizes the stats of walkers [start, start+count)
// whose shard was lost past recovery: each walker keeps its global
// identity and portfolio entry and carries an empty Interrupted result
// stamped core.CostUnknown — never fabricated work, and never a cost a
// consumer may aggregate.
func lostShardResult(start, count int, job JobSpec) multiwalk.Result {
	stats := make([]multiwalk.WalkerStat, count)
	for i := range stats {
		g := start + i
		stats[i] = multiwalk.WalkerStat{
			Walker: g,
			Entry:  multiwalk.EntryFor(job.Portfolio, job.Walkers, g),
			Result: core.Result{Interrupted: true, Cost: core.CostUnknown},
		}
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
	payload, err := json.Marshal(reqBody)
	if err != nil {
		return shardOutcome{err: err}
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, a.worker.base+"/v1/run", bytes.NewReader(payload))
	if err != nil {
		return shardOutcome{err: err}
	}
	httpReq.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(httpReq)
	if err != nil {
		// Transport loss: connection refused, reset mid-run, context
		// cancelled. No stats came back — the shard is lost. Mark the
		// worker so recovery plans around it; the next successful probe
		// or heartbeat restores it.
		c.reg.reportFailure(a.worker)
		return shardOutcome{lost: true}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&e); err != nil || e.Error == "" {
			return shardOutcome{lost: true}
		}
		if resp.StatusCode == http.StatusBadRequest || resp.StatusCode == http.StatusTooManyRequests {
			// The worker understood us and said no: an application
			// error the caller must see (bad options reject the whole
			// job; capacity conflicts mean a mis-shared fleet).
			return shardOutcome{err: errors.New(e.Error)}
		}
		return shardOutcome{lost: true}
	}
	var wire RunResponse
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		return shardOutcome{lost: true}
	}
	return shardOutcome{res: resultFromWire(wire)}
}

// cancelGrace is how long the coordinator waits, after delivering
// cancel RPCs, for workers to flush their partial statistics before it
// severs the connections.
const cancelGrace = 30 * time.Second

// cancelRun delivers one best-effort cancel RPC on its own bounded
// background context. acked reports that the worker answered 200, live
// that the cancel interrupted a run still in flight (a finished or
// not-yet-registered run answers cancelled: false). The body is read to
// EOF so the keep-alive connection returns to the pool: closed unread,
// every cancel would cost the next one a fresh dial.
func (c *Coordinator) cancelRun(a *assignment) (acked, live bool) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, a.worker.base+"/v1/runs/"+a.runID+"/cancel", nil)
	if err != nil {
		return false, false
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return false, false
	}
	defer resp.Body.Close()
	var ack struct {
		Cancelled bool `json:"cancelled"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&ack) // an unreadable ack is not a live one
	_, _ = io.Copy(io.Discard, resp.Body)       // past the decoded value to EOF
	acked = resp.StatusCode == http.StatusOK
	return acked, acked && ack.Cancelled
}
