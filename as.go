package repro

import (
	"context"
	"net/http"

	"repro/internal/calibrate"
	"repro/internal/core"
	"repro/internal/csp"
	"repro/internal/dist"
	"repro/internal/domain"
	"repro/internal/multiwalk"
	"repro/internal/problems"
	"repro/internal/service"
)

// Problem is the permutation-CSP interface solved by the Adaptive
// Search engine. See internal/core for the full contract, including the
// optional SwapExecutor / ResetHandler / Tuner interfaces incremental
// encodings implement.
type Problem = core.Problem

// MoveEvaluator is the optional batched companion of CostIfSwap:
// problems implementing it serve a whole swap-cost row in one call and
// the engine's move selection skips per-candidate interface dispatch.
type MoveEvaluator = core.MoveEvaluator

// MaintainedErrorVector is the optional delta-maintenance fast path:
// problems implementing it keep their per-variable error vector current
// through ExecutedSwap/Cost, and the engine serves worst-variable
// selection from the live vector without invalidation or copying.
type MaintainedErrorVector = core.MaintainedErrorVector

// Options configures one Adaptive Search engine run.
type Options = core.Options

// Result reports a Solve outcome with full execution statistics.
type Result = core.Result

// Directive steers a run from an Options.Monitor callback.
type Directive = core.Directive

// MultiWalkOptions configures a parallel multi-walk run.
type MultiWalkOptions = multiwalk.Options

// MultiWalkResult aggregates a parallel multi-walk run.
type MultiWalkResult = multiwalk.Result

// ExchangeOptions tunes the dependent (communicating) multi-walk
// scheme, the paper's future-work extension. SolveRequest.Exchange takes
// it too, opting a service job into the scheme; on a distributed
// backend the walkers cooperate across worker processes.
type ExchangeOptions = multiwalk.ExchangeOptions

// MultiWalkBoard is the shared elite-configuration board of the
// dependent multi-walk scheme: publish-and-snapshot of the best
// (cost, configuration) pair seen by any walker. SolveParallel creates
// a private in-process board per exchange-enabled run; set
// MultiWalkOptions.Board to share one across sharded runs, or rely on
// a DistCoordinator to host a cross-worker board automatically.
type MultiWalkBoard = multiwalk.Board

// NewMultiWalkBoard returns the in-process board implementation, for
// driving sharded dependent runs by hand.
func NewMultiWalkBoard() MultiWalkBoard { return multiwalk.NewLocalBoard() }

// MultiWalkStat reports one walker's outcome within a multi-walk run,
// including dependent-scheme accounting (Adoptions, Yielded).
type MultiWalkStat = multiwalk.WalkerStat

// PortfolioEntry assigns engine options (typically a different search
// strategy) to a weighted share of the walkers of a multi-walk run;
// set MultiWalkOptions.Portfolio to run a heterogeneous portfolio.
type PortfolioEntry = multiwalk.PortfolioEntry

// Strategy bundles the engine's pluggable search behaviors: variable
// selection, move selection, and the restart/diversification policy.
// Select a registered strategy by name through Options.Strategy.
type Strategy = core.Strategy

// VariableSelector picks the variable to move each engine iteration.
type VariableSelector = core.VariableSelector

// MoveSelector picks the swap partner for the selected variable.
type MoveSelector = core.MoveSelector

// RestartPolicy owns freezes, probabilistic escapes and partial resets.
type RestartPolicy = core.RestartPolicy

// SearchState is the live engine state handed to strategy plug points.
type SearchState = core.State

// Built-in strategy names for Options.Strategy.
const (
	StrategyAdaptive   = core.StrategyAdaptive
	StrategyRandomWalk = core.StrategyRandomWalk
	StrategyMetropolis = core.StrategyMetropolis
)

// ProblemFactory builds fresh problem instances, one per walker.
type ProblemFactory = multiwalk.Factory

// Model is the declarative CSP builder: add constraints over a
// permutation, then Compile into a Problem.
type Model = csp.Model

// ProblemInfo describes a registered benchmark.
type ProblemInfo = problems.Info

// Solve runs the sequential Adaptive Search engine on p.
func Solve(ctx context.Context, p Problem, opts Options) (Result, error) {
	return core.Solve(ctx, p, opts)
}

// TunedOptions returns engine defaults with the problem's benchmark-
// specific tuning applied.
func TunedOptions(p Problem) Options { return core.TunedOptions(p) }

// DefaultOptions returns plain engine defaults for an n-variable
// problem.
func DefaultOptions(n int) Options { return core.DefaultOptions(n) }

// SolveParallel runs k independent walks concurrently and returns as
// soon as one finds a solution — the paper's parallel scheme.
func SolveParallel(ctx context.Context, factory ProblemFactory, opts MultiWalkOptions) (MultiWalkResult, error) {
	return multiwalk.Run(ctx, factory, opts)
}

// SolveParallelVirtual runs the same independent walks sequentially to
// completion, deterministically, declaring the fewest-iterations walker
// the winner. This is the hardware-independent view used by the
// experiment harness.
func SolveParallelVirtual(ctx context.Context, factory ProblemFactory, opts MultiWalkOptions) (MultiWalkResult, error) {
	return multiwalk.RunVirtual(ctx, factory, opts)
}

// NewProblem constructs a registered benchmark instance by name
// ("all-interval", "perfect-square", "magic-square", "costas", "queens",
// "alpha", "langford", "partition", "timetable"). size <= 0 selects the
// default.
func NewProblem(name string, size int) (Problem, error) {
	return problems.New(name, size)
}

// NewProblemFactory returns a factory of independent instances of a
// registered benchmark, for SolveParallel. Every call returns an
// instance nobody else holds: the first the template that was built to
// validate name and size (and, finite-domain, reduced: a model proven
// unsatisfiable is this constructor's ErrUnsatisfiable), the later ones
// clones of it where the benchmark can share its model, fresh
// constructions where it cannot.
func NewProblemFactory(name string, size int) (ProblemFactory, error) {
	f, err := problems.NewFactory(name, size)
	if err != nil {
		return nil, err
	}
	return ProblemFactory(f), nil
}

// NewProblemWithParams constructs a registered benchmark with
// benchmark-specific parameters (the finite-domain benchmarks' knobs,
// e.g. timetable's "slots", "rooms", "teachers"). Unknown keys or
// out-of-range values fail with a typed bad-parameter error; nil params
// is equivalent to NewProblem.
func NewProblemWithParams(name string, size int, params map[string]int) (Problem, error) {
	return problems.NewWithParams(name, size, params)
}

// NewProblemFactoryParams is the factory form of NewProblemWithParams.
func NewProblemFactoryParams(name string, size int, params map[string]int) (ProblemFactory, error) {
	f, err := problems.NewFactoryParams(name, size, params)
	if err != nil {
		return nil, err
	}
	return ProblemFactory(f), nil
}

// Benchmarks lists the registered benchmark names.
func Benchmarks() []string { return problems.Names() }

// DescribeBenchmark returns metadata for a registered benchmark.
func DescribeBenchmark(name string) (ProblemInfo, error) { return problems.Describe(name) }

// NewModel starts a declarative CSP over n variables whose values are
// cfg[i] + valueOffset.
func NewModel(n, valueOffset int) *Model { return csp.NewModel(n, valueOffset) }

// SolveService is the admission-controlled job scheduler serving many
// concurrent solve requests over a bounded walker-slot pool — the
// serving layer of the multi-walk solver (see DESIGN.md §7).
type SolveService = service.Scheduler

// ServiceConfig sizes a SolveService (slots, queue depth, deadlines,
// result TTL); the zero value selects defaults.
type ServiceConfig = service.Config

// SolveRequest describes one job submitted to a SolveService.
type SolveRequest = service.Request

// SolveJob is an immutable snapshot of a service job.
type SolveJob = service.Job

// JobState is a service job's lifecycle state (queued, running,
// solved, unsolved, cancelled, failed).
type JobState = service.State

// ServiceStats is the metrics snapshot a SolveService exposes.
type ServiceStats = service.Stats

// SolveAutoSizeSpec asks admission to choose a request's walker count
// from calibrated runtime distributions instead of a fixed Walkers
// value: set SolveRequest.AutoSize and give the service a
// CalibrationStore (ServiceConfig.Calibration). See DESIGN.md §15.
type SolveAutoSizeSpec = service.AutoSizeSpec

// CalibrationStore holds per-(problem, size, params, strategy) runtime
// observations: seeded from bench runs, kept fresh by solved jobs, and
// resolved into fitted runtime models for speedup prediction and
// auto-sizing.
type CalibrationStore = calibrate.Store

// NewCalibrationStore returns an empty calibration store.
func NewCalibrationStore() *CalibrationStore { return calibrate.NewStore() }

// LoadCalibration loads a calibration store saved with its Save
// method; a missing file yields an empty store.
func LoadCalibration(path string) (*CalibrationStore, error) { return calibrate.Load(path) }

// Typed service errors, for embedders of SolveService.
var (
	ErrQueueFull  = service.ErrQueueFull
	ErrBadRequest = service.ErrBadRequest
	ErrJobUnknown = service.ErrNotFound
	ErrClosed     = service.ErrClosed
	// ErrNoCalibration rejects an auto-sized request whose population has
	// no (or too little) calibration data (HTTP 409).
	ErrNoCalibration = service.ErrNoCalibration
	// ErrTargetUnsatisfiable rejects an auto-sized request whose latency
	// target is below the predicted P95 at every admissible walker count
	// (HTTP 422).
	ErrTargetUnsatisfiable = service.ErrUnsatisfiable
)

// ErrBadParams marks a benchmark construction request with unknown or
// out-of-range parameters (errors.Is-matchable).
var ErrBadParams = problems.ErrBadParams

// ErrUnsatisfiable marks a model whose pre-search domain reduction
// proved it has no solution (errors.Is-matchable); Solve and the
// serving layer surface it before any search is spent.
var ErrUnsatisfiable = domain.ErrUnsatisfiable

// NewSolveService starts an admission-controlled solve scheduler.
// Close it to cancel outstanding jobs and release every goroutine.
func NewSolveService(cfg ServiceConfig) *SolveService { return service.New(cfg) }

// NewServiceHandler exposes a SolveService over the HTTP JSON API
// served by cmd/serve (POST /v1/solve, GET /v1/jobs/{id}, ...).
func NewServiceHandler(s *SolveService) http.Handler { return service.NewHandler(s) }

// MultiWalkShard restricts a multi-walk run to a sub-range of a larger
// job's walkers while preserving global walker identity (seeds,
// portfolio entries, indices); set MultiWalkOptions.Shard. Shards of
// one job merged with CombineShards are bit-for-bit the whole-job run.
type MultiWalkShard = multiwalk.Shard

// CombineShards merges the shard results of one logical job into the
// whole-job result, recomputing the deterministic virtual winner.
func CombineShards(total int, shards ...MultiWalkResult) (MultiWalkResult, error) {
	return multiwalk.CombineShards(total, shards...)
}

// DistWorker executes walker shards on behalf of a coordinator; serve
// its Handler over HTTP (see cmd/worker).
type DistWorker = dist.Worker

// DistWorkerConfig sizes a DistWorker.
type DistWorkerConfig = dist.WorkerConfig

// DistCoordinator shards multi-walk jobs over a fleet of workers with
// the same determinism contract as SolveParallel/SolveParallelVirtual.
// It satisfies ServiceBackend, so a SolveService can run on a fleet.
type DistCoordinator = dist.Coordinator

// DistCoordinatorConfig configures a DistCoordinator (worker URLs).
type DistCoordinatorConfig = dist.CoordinatorConfig

// DistJobSpec describes one distributed multi-walk job.
type DistJobSpec = dist.JobSpec

// ServiceBackend executes a SolveService's admitted jobs: the
// in-process pool by default, or a DistCoordinator for a worker fleet
// (ServiceConfig.Backend).
type ServiceBackend = service.Backend

// NewDistWorker creates a worker process' execution core; expose it
// with its Handler method.
func NewDistWorker(cfg DistWorkerConfig) *DistWorker { return dist.NewWorker(cfg) }

// NewDistCoordinator enrolls a worker fleet, probing each worker's
// slot capacity.
func NewDistCoordinator(cfg DistCoordinatorConfig) (*DistCoordinator, error) {
	return dist.NewCoordinator(cfg)
}

// RegisterStrategy adds a named strategy factory to the global
// registry, making it selectable through Options.Strategy (and thus
// multi-walk portfolios and the CLI). The factory runs once per Solve
// call, so strategies may carry per-run state.
func RegisterStrategy(name string, factory func() Strategy) {
	core.RegisterStrategy(name, factory)
}

// StrategyNames lists the registered strategy names.
func StrategyNames() []string { return core.StrategyNames() }
