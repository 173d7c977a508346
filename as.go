package repro

import (
	"context"

	"repro/internal/core"
	"repro/internal/csp"
	"repro/internal/domain"
	"repro/internal/multiwalk"
	"repro/internal/problems"
)

// Problem is the permutation-CSP interface solved by the Adaptive
// Search engine. See internal/core for the full contract, including the
// optional incremental interfaces encodings implement.
type Problem = core.Problem

// Options configures one Adaptive Search engine run.
type Options = core.Options

// Result reports a Solve outcome with full execution statistics.
type Result = core.Result

// MultiWalkOptions configures a parallel multi-walk run.
type MultiWalkOptions = multiwalk.Options

// MultiWalkResult aggregates a parallel multi-walk run.
type MultiWalkResult = multiwalk.Result

// Strategy bundles the engine's pluggable search behaviors: variable
// selection, move selection, and the restart/diversification policy.
// Register one with RegisterStrategy and select it by name through
// Options.Strategy.
type Strategy = core.Strategy

// VariableSelector picks the variable to move each engine iteration.
type VariableSelector = core.VariableSelector

// MoveSelector picks the swap partner for the selected variable.
type MoveSelector = core.MoveSelector

// RestartPolicy owns freezes, probabilistic escapes and partial resets.
type RestartPolicy = core.RestartPolicy

// SearchState is the live engine state handed to strategy plug points.
type SearchState = core.State

// ProblemFactory builds fresh problem instances, one per walker.
type ProblemFactory = multiwalk.Factory

// Model is the declarative CSP builder: add constraints over a
// permutation, then Compile into a Problem.
type Model = csp.Model

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
// out-of-range values fail with ErrBadParams; nil params is equivalent
// to NewProblem.
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

// NewModel starts a declarative CSP over n variables whose values are
// cfg[i] + valueOffset.
func NewModel(n, valueOffset int) *Model { return csp.NewModel(n, valueOffset) }

// ErrBadParams marks a benchmark construction request with unknown or
// out-of-range parameters (errors.Is-matchable).
var ErrBadParams = problems.ErrBadParams

// ErrUnsatisfiable marks a model whose pre-search domain reduction
// proved it has no solution (errors.Is-matchable); Solve and the
// parameterized factories surface it before any search is spent.
var ErrUnsatisfiable = domain.ErrUnsatisfiable

// RegisterStrategy adds a named strategy factory to the global
// registry, making it selectable through Options.Strategy. The factory
// runs once per Solve call, so strategies may carry per-run state.
func RegisterStrategy(name string, factory func() Strategy) {
	core.RegisterStrategy(name, factory)
}
