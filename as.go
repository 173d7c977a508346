package repro

import (
	"context"

	"repro/internal/core"
	"repro/internal/csp"
	"repro/internal/domain"
	"repro/internal/multiwalk"
	"repro/internal/problems"
)

// Problem is a CSP the Adaptive Search engine solves. Every problem
// answers Size, Cost, CostOnVariable, CostIfSwap and LiveErrors (its
// live per-variable error vector), and Solve runs one only with the
// rest of its encoding's contract: a permutation problem adds
// CostsIfSwapAll and ExecutedSwap (core.PermProblem), a finite-domain
// one Domain, CostIfAssign, CostsIfAssignAll and ExecutedAssign
// (core.FDProblem). A problem with neither is refused with an error.
// Every NewProblem benchmark and every compiled Model has its whole
// contract; see internal/core for what each method must do.
type Problem = core.Problem

// Options configures one Adaptive Search engine run.
type Options = core.Options

// Result reports a Solve outcome with full execution statistics.
type Result = core.Result

// MultiWalkOptions configures a parallel multi-walk run.
type MultiWalkOptions = multiwalk.Options

// MultiWalkResult aggregates a parallel multi-walk run.
type MultiWalkResult = multiwalk.Result

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
// registered benchmark, for SolveParallel. The spec is built once per
// process, to validate name and size (and, finite-domain, reduced: a
// model proven unsatisfiable is this constructor's ErrUnsatisfiable),
// and every call returns an instance nobody else holds: a clone of that
// model where the benchmark can share it, a fresh construction where it
// cannot.
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
