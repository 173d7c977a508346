package service

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/multiwalk"
	"repro/internal/problems"
)

// State is a job's lifecycle state. Transitions are strictly
//
//	queued -> running -> solved | unsolved | cancelled | failed
//	queued -> cancelled                    (cancelled before dispatch)
//
// and terminal states never change.
type State string

const (
	// StateQueued: admitted, waiting for walker slots.
	StateQueued State = "queued"
	// StateRunning: holding slots, walkers executing.
	StateRunning State = "running"
	// StateSolved: a walker found a solution.
	StateSolved State = "solved"
	// StateUnsolved: every walker exhausted its budget without solving.
	StateUnsolved State = "unsolved"
	// StateCancelled: deadline expiry, explicit cancel, or shutdown.
	StateCancelled State = "cancelled"
	// StateFailed: the run reported an error (bad options, factory
	// failure).
	StateFailed State = "failed"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	switch s {
	case StateSolved, StateUnsolved, StateCancelled, StateFailed:
		return true
	}
	return false
}

// Typed errors surfaced by the scheduler; the HTTP layer maps them to
// status codes (ErrQueueFull -> 429, ErrBadRequest -> 400, ErrNotFound
// -> 404, ErrClosed -> 503).
var (
	// ErrQueueFull is the admission-control backpressure signal: the
	// FIFO queue is at capacity and the request was rejected without
	// being admitted. Callers should retry with backoff.
	ErrQueueFull = errors.New("service: admission queue full")
	// ErrBadRequest marks a request the registry-driven validation
	// rejected (unknown problem or strategy, out-of-range walkers).
	ErrBadRequest = errors.New("service: bad request")
	// ErrNotFound reports an unknown (or TTL-evicted) job id.
	ErrNotFound = errors.New("service: unknown job")
	// ErrClosed reports a submission after Close.
	ErrClosed = errors.New("service: scheduler closed")
	// ErrBadParams marks a request whose problem parameters the
	// benchmark rejected (unknown key, non-positive value, params on a
	// benchmark that takes none). It wraps ErrBadRequest so the HTTP
	// layer still answers 400 while callers can distinguish the cause
	// with errors.Is(err, ErrBadParams).
	ErrBadParams = fmt.Errorf("%w: invalid problem parameters", ErrBadRequest)
)

// Request describes one solve job. The zero value of every optional
// field selects a sensible default at admission time.
type Request struct {
	// Problem names a registered benchmark (see problems.Names).
	Problem string `json:"problem"`
	// Size is the instance parameter; <= 0 selects the benchmark's
	// default size.
	Size int `json:"size,omitempty"`
	// Params carries benchmark-specific problem parameters (the
	// finite-domain benchmarks' knobs, e.g. timetable's slots/rooms/
	// teachers). Unknown or invalid entries are rejected at admission
	// with ErrBadParams; benchmarks that take no parameters reject a
	// non-empty map.
	Params map[string]int `json:"params,omitempty"`
	// Walkers is the number of parallel walks; it is also the number of
	// pool slots the job occupies while running. 0 selects 1; values
	// above the pool size are rejected.
	Walkers int `json:"walkers,omitempty"`
	// AutoSize, when non-nil, asks admission to choose Walkers from the
	// calibrated runtime distribution instead (see AutoSizeSpec). It is
	// mutually exclusive with an explicit Walkers value; the chosen
	// count is written into Walkers and echoed in job snapshots.
	AutoSize *AutoSizeSpec `json:"autosize,omitempty"`
	// Seed seeds the multi-walk master stream. 0 lets the scheduler
	// pick a per-job seed.
	Seed uint64 `json:"seed,omitempty"`
	// Strategy names an engine search strategy ("" selects the
	// problem's tuned default).
	Strategy string `json:"strategy,omitempty"`
	// Portfolio, when non-empty, runs a heterogeneous portfolio and
	// takes precedence over Strategy.
	Portfolio []PortfolioSpec `json:"portfolio,omitempty"`
	// Exchange, when non-nil and Enabled, runs the job in the dependent
	// (communicating) multi-walk scheme: walkers publish their best to
	// a shared elite board and laggards teleport to perturbed elites.
	// On a distributed backend the board is coordinator-hosted and
	// cooperation crosses worker processes. Dependent runs are
	// timing-dependent; independent jobs (the default) keep their
	// bit-for-bit reproducibility.
	// The zero value of each tuning field selects the multiwalk default
	// (period 1024, adopt factor 2.0, perturbation max(2, n/16)).
	Exchange *multiwalk.ExchangeOptions `json:"exchange,omitempty"`
	// MaxIterations bounds each walker run; 0 keeps the tuned default.
	MaxIterations int64 `json:"max_iterations,omitempty"`
	// MaxRuns bounds restarts per walker; 0 keeps the tuned default
	// (unlimited — the job is then bounded by its deadline).
	MaxRuns int `json:"max_runs,omitempty"`
	// TimeoutMS is the job deadline in milliseconds, measured from
	// dispatch (not from submission). 0 selects the scheduler default;
	// values above the configured maximum are clamped.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Tenant attributes the job for multi-tenant admission: queued jobs
	// compete under weighted-fair scheduling per tenant, and a tenant's
	// concurrent slot usage is capped by its configured quota. ""
	// selects the "default" tenant (weight 1, no quota unless
	// configured).
	Tenant string `json:"tenant,omitempty"`
	// Priority selects the admission class: "high", "normal" or "low"
	// ("" selects "normal"). Classes are strict — a queued high job is
	// always preferred over normal and low — while jobs within one
	// class are ordered by weighted fairness across tenants.
	Priority string `json:"priority,omitempty"`
}

// Priority classes, ordered: lower value dispatches first.
const (
	classHigh = iota
	classNormal
	classLow
)

// classOf maps a request priority string to its class.
func classOf(p string) (int, error) {
	switch p {
	case "", "normal":
		return classNormal, nil
	case "high":
		return classHigh, nil
	case "low":
		return classLow, nil
	default:
		return 0, fmt.Errorf("%w: unknown priority %q (want high, normal or low)", ErrBadRequest, p)
	}
}

// maxTenantLen bounds tenant names; they appear in metrics keys.
const maxTenantLen = 64

// PortfolioSpec assigns a strategy a weighted share of the walkers.
type PortfolioSpec struct {
	Strategy string `json:"strategy"`
	Weight   int    `json:"weight,omitempty"`
}

// Job is an immutable snapshot of a job's state, safe to retain and
// serialize.
type Job struct {
	ID          string     `json:"id"`
	State       State      `json:"state"`
	Request     Request    `json:"request"`
	Error       string     `json:"error,omitempty"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   time.Time  `json:"started_at,omitzero"`
	FinishedAt  time.Time  `json:"finished_at,omitzero"`
	Result      *JobResult `json:"result,omitempty"`
}

// JobResult condenses a multiwalk.Result for transport.
type JobResult struct {
	Solved           bool   `json:"solved"`
	Solution         []int  `json:"solution,omitempty"`
	Winner           int    `json:"winner"`
	WinnerStrategy   string `json:"winner_strategy,omitempty"`
	WinnerIterations int64  `json:"winner_iterations"`
	TotalIterations  int64  `json:"total_iterations"`
	CompletedWalkers int    `json:"completed_walkers"`
	Truncated        bool   `json:"truncated"`
	ElapsedMS        int64  `json:"elapsed_ms"`
	// Adoptions counts elite-configuration adoptions across all
	// walkers (dependent runs only; always 0 for independent jobs).
	Adoptions int64 `json:"adoptions,omitempty"`
	// YieldedWalkers counts walkers that stood down because the board
	// showed the job solved elsewhere — distinguishable from walkers
	// interrupted by cancellation.
	YieldedWalkers int `json:"yielded_walkers,omitempty"`
	// BestCost is the best final cost across walkers that actually ran
	// (0 when solved), or -1 when no walker reported a cost. Walkers
	// synthesized after a lost shard — and walkers a cancelled sweep
	// never reached — carry the core.CostUnknown sentinel, which is
	// never surfaced here as a real cost.
	BestCost int `json:"best_cost"`
}

// condenseResult maps the multiwalk result into the transport shape.
func condenseResult(res *multiwalk.Result) *JobResult {
	if res == nil {
		return nil
	}
	// Copy the solution so snapshots honor Job's immutability contract
	// — every snapshot of one job would otherwise share the stored
	// result's backing array.
	var solution []int
	if res.Solution != nil {
		solution = append([]int(nil), res.Solution...)
	}
	jr := &JobResult{
		Solved:           res.Solved,
		Solution:         solution,
		Winner:           res.Winner,
		WinnerIterations: res.WinnerIterations,
		TotalIterations:  res.TotalIterations,
		CompletedWalkers: res.Completed,
		Truncated:        res.Truncated,
		ElapsedMS:        res.Elapsed.Milliseconds(),
		Adoptions:        res.Adoptions,
	}
	jr.BestCost = -1
	for _, ws := range res.Walkers {
		if ws.Yielded {
			jr.YieldedWalkers++
		}
		// The CostUnknown sentinel (never-ran walkers, lost shards) is
		// "no cost", not a candidate — the audit that keeps math.MaxInt
		// out of every cost summary.
		if ws.Result.Iterations > 0 && ws.Result.Cost != core.CostUnknown {
			if jr.BestCost < 0 || ws.Result.Cost < jr.BestCost {
				jr.BestCost = ws.Result.Cost
			}
		}
	}
	if res.Solved {
		jr.BestCost = 0
	}
	if res.Winner >= 0 && res.Winner < len(res.Walkers) {
		jr.WinnerStrategy = res.Walkers[res.Winner].Result.Strategy
	}
	return jr
}

// normalizeRequest validates req against the problems and strategy
// registries and resolves it into a ready-to-run multi-walk
// configuration. All validation errors wrap ErrBadRequest.
//
// Every check that needs no problem instance runs first, so a request
// that is a plain 400 never pays for a construction. The job's template
// (problems.NewTemplate) is built last and is the only instance
// admission builds: it is constructed once and, for a finite-domain
// model, reduced once — a provably unsatisfiable model is a synchronous
// typed rejection (HTTP 422), not a job every walker fails
// asynchronously — the tuned engine defaults are read off it, and the
// returned factory hands it to the first walker and clones of it (or,
// for an encoding without Clone, fresh instances) to the others. No
// walker of a cloning encoding constructs or reduces anything.
func (s *Scheduler) normalizeRequest(req *Request) (problems.Factory, multiwalk.Options, error) {
	var zero multiwalk.Options
	if req.Problem == "" {
		return nil, zero, fmt.Errorf("%w: missing problem (known: %v)", ErrBadRequest, problems.Names())
	}
	info, err := problems.Describe(req.Problem)
	if err != nil {
		return nil, zero, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if req.Size <= 0 {
		req.Size = info.DefaultSize
	}
	if req.TimeoutMS < 0 {
		return nil, zero, fmt.Errorf("%w: negative budget", ErrBadRequest)
	}
	if req.Tenant == "" {
		req.Tenant = "default"
	}
	if len(req.Tenant) > maxTenantLen {
		return nil, zero, fmt.Errorf("%w: tenant name exceeds %d bytes", ErrBadRequest, maxTenantLen)
	}
	if _, err := classOf(req.Priority); err != nil {
		return nil, zero, err
	}
	// The engine fields the request sets, checked by the engine's own
	// validator; the template's tuned defaults fill in the rest below.
	engine := core.Options{MaxIterations: req.MaxIterations, MaxRuns: req.MaxRuns, Strategy: req.Strategy}
	if err := engine.Validate(); err != nil {
		return nil, zero, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if req.AutoSize != nil {
		if err := s.autoSize(req); err != nil {
			return nil, zero, err
		}
	}
	if req.Walkers == 0 {
		req.Walkers = 1
	}
	if slots := s.curSlots(); req.Walkers < 0 || req.Walkers > slots {
		return nil, zero, fmt.Errorf("%w: walkers = %d outside [1, %d] (pool size)", ErrBadRequest, req.Walkers, slots)
	}
	opts := multiwalk.Options{Walkers: req.Walkers, Seed: req.Seed}
	if req.Exchange != nil && req.Exchange.Enabled {
		opts.Exchange = *req.Exchange
	}
	for i, spec := range req.Portfolio {
		// A client's portfolio entry names its strategy; "" is no default.
		if !core.KnownStrategy(spec.Strategy) {
			return nil, zero, fmt.Errorf("%w: portfolio[%d]: unknown strategy %q (known: %v)", ErrBadRequest, i, spec.Strategy, core.StrategyNames())
		}
		opts.Portfolio = append(opts.Portfolio, multiwalk.PortfolioEntry{Weight: spec.Weight, Engine: core.Options{Strategy: spec.Strategy}})
	}
	// multiwalk's own check at admission time (portfolio weights and
	// reachability, exchange tuning), so a degenerate job is a 400, not a
	// late job failure.
	if err := opts.Validate(); err != nil {
		return nil, zero, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}

	template, factory, err := problems.NewTemplate(req.Problem, req.Size, req.Params)
	if err != nil {
		switch {
		case errors.Is(err, domain.ErrUnsatisfiable):
			return nil, zero, fmt.Errorf("service: %w", err)
		case errors.Is(err, problems.ErrBadParams):
			return nil, zero, fmt.Errorf("%w: %v", ErrBadParams, err)
		}
		return nil, zero, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	// The template supplies per-problem engine defaults; request fields
	// override on top.
	opts.Engine = core.TunedOptions(template)
	if req.MaxIterations > 0 {
		opts.Engine.MaxIterations = req.MaxIterations
	}
	if req.MaxRuns > 0 {
		opts.Engine.MaxRuns = req.MaxRuns
	}
	if req.Strategy != "" {
		opts.Engine.Strategy = req.Strategy
	}
	for i := range opts.Portfolio {
		strategy := opts.Portfolio[i].Engine.Strategy
		opts.Portfolio[i].Engine = opts.Engine
		opts.Portfolio[i].Engine.Strategy = strategy
	}
	return factory, opts, nil
}

// timeoutFor resolves the job deadline from the request and the
// scheduler's default/max bounds.
func (s *Scheduler) timeoutFor(req *Request) time.Duration {
	d := time.Duration(req.TimeoutMS) * time.Millisecond
	if d <= 0 {
		d = s.cfg.DefaultTimeout
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}
