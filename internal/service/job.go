package service

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
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
	// rejected (unknown problem, out-of-range walkers).
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
	Solved           bool  `json:"solved"`
	Solution         []int `json:"solution,omitempty"`
	Winner           int   `json:"winner"`
	WinnerIterations int64 `json:"winner_iterations"`
	TotalIterations  int64 `json:"total_iterations"`
	CompletedWalkers int   `json:"completed_walkers"`
	Truncated        bool  `json:"truncated"`
	ElapsedMS        int64 `json:"elapsed_ms"`
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
	return jr
}

// normalizeRequest validates req against the problems registry and
// resolves it into a ready-to-run multi-walk configuration. All
// validation errors wrap ErrBadRequest.
//
// Every check that needs no problem instance runs first, so a request
// that is a plain 400 never pays for a construction. The instance's own
// checks come last, from verdict: it builds at most one template a
// job, and none for a spec admission has seen build before.
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
	// validator; the spec's tuned defaults fill in the rest below.
	engine := core.Options{MaxIterations: req.MaxIterations, MaxRuns: req.MaxRuns}
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
	// multiwalk's own check at admission time (exchange tuning), so a
	// degenerate job is a 400, not a late job failure.
	if err := opts.Validate(); err != nil {
		return nil, zero, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}

	factory, tuned, err := s.verdict(req)
	if err != nil {
		switch {
		case errors.Is(err, domain.ErrUnsatisfiable):
			return nil, zero, fmt.Errorf("service: %w", err)
		case errors.Is(err, problems.ErrBadParams):
			return nil, zero, fmt.Errorf("%w: %v", ErrBadParams, err)
		}
		return nil, zero, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	// The spec supplies per-problem engine defaults; request fields
	// override on top.
	opts.Engine = tuned
	if req.MaxIterations > 0 {
		opts.Engine.MaxIterations = req.MaxIterations
	}
	if req.MaxRuns > 0 {
		opts.Engine.MaxRuns = req.MaxRuns
	}
	return factory, opts, nil
}

// verdictMemoCap bounds the verdict memo. An entry is a key of a few
// dozen bytes and one core.Options, so a full memo is some 40 KB.
const verdictMemoCap = 256

// verdict returns the job's factory and the tuned engine options of
// its spec — (problem, size, params) — and refuses a spec that does not
// build or that its reduction proves unsatisfiable.
//
// A spec not in the memo is built here as the job's template
// (problems.NewTemplate: constructed and, for a finite-domain model,
// reduced once), its tuned options are read off it and memoized, and
// the factory hands the template to the job's first walker and clones
// of it to the others. A memoized spec is known to build, so nothing is
// built here: its factory is problems.LazyFactory, which builds the
// template on the job's first call of it. A local job thus builds one
// template either way, and a fleet job, whose walkers are built by the
// workers and which never calls its factory, builds none at admission
// once its spec is memoized. A refusal is never memoized; a full memo
// drops an entry, the one map iteration meets first, to take a new one.
func (s *Scheduler) verdict(req *Request) (problems.Factory, core.Options, error) {
	var buf [64]byte
	key := specKey(buf[:0], req)
	s.verdictMu.Lock()
	tuned, ok := s.verdicts[string(key)]
	s.verdictMu.Unlock()
	if ok {
		return problems.LazyFactory(req.Problem, req.Size, req.Params), tuned, nil
	}
	template, factory, err := problems.NewTemplate(req.Problem, req.Size, req.Params)
	if err != nil {
		return nil, core.Options{}, err
	}
	tuned = core.TunedOptions(template)
	s.verdictMu.Lock()
	if len(s.verdicts) >= verdictMemoCap {
		for k := range s.verdicts {
			delete(s.verdicts, k)
			break
		}
	}
	s.verdicts[string(key)] = tuned
	s.verdictMu.Unlock()
	return factory, tuned, nil
}

// specKey appends req's memo key to dst: the problem, the size and the
// params in key order. Every string is prefixed with its length, so no
// two specs share a key whatever their params' names hold.
func specKey(dst []byte, req *Request) []byte {
	dst = appendKeyString(dst, req.Problem)
	dst = strconv.AppendInt(dst, int64(req.Size), 10)
	var stack [4]string
	names := stack[:0]
	for name := range req.Params {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		dst = append(dst, ',')
		dst = appendKeyString(dst, name)
		dst = strconv.AppendInt(dst, int64(req.Params[name]), 10)
	}
	return dst
}

func appendKeyString(dst []byte, s string) []byte {
	dst = strconv.AppendInt(dst, int64(len(s)), 10)
	dst = append(dst, ':')
	return append(dst, s...)
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
