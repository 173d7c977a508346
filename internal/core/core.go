// Package core implements the Adaptive Search constraint-based local
// search engine of Codognet & Diaz (SAGA'01, MIC'03), the sequential
// solver underneath the parallel multi-walk study of Abreu, Caniou,
// Codognet, Diaz & Richoux (PPoPP 2012).
//
// Each constraint of a problem contributes an error; errors are
// projected onto variables; each iteration the engine picks the worst
// (highest-error) non-frozen variable and the best move for it. A
// non-improving best move marks a local minimum: the variable is frozen
// for a few iterations (an adaptive tabu), and when too many variables
// are frozen the configuration is partially reset. An iteration budget
// triggers a full restart from a fresh random configuration. That loop
// exists once (engine.go) and runs over one of two move sets: swaps, for
// problems encoded over permutations, where all-different stays
// implicit, and assignments, for problems over finite domains
// (FDProblem, fd.go).
//
// Problems plug in through the Problem interface; incremental encodings
// additionally implement SwapExecutor and/or ResetHandler, mirroring the
// Cost_If_Swap / Executed_Swap / Reset hooks of the original C library.
package core

import "repro/internal/rng"

// Problem is a CSP encoded over permutations of [0, n). The engine owns
// the configuration slice and mutates it in place; a Problem must never
// retain it between calls.
//
// Contract:
//   - Cost fully recomputes the global error of cfg and, for problems
//     that keep incremental state (cached row sums, difference tables,
//     ...), rebuilds that state from scratch. Cost must return 0 if and
//     only if cfg is a solution.
//   - CostOnVariable returns the error projected onto variable i under
//     the current configuration. It must be consistent with Cost in the
//     weak sense required by Adaptive Search: variables involved in
//     violated constraints have positive error, satisfied-only variables
//     have error <= any violating variable. It must not mutate state.
//   - CostIfSwap returns the global cost that Cost would return after
//     swapping cfg[i] and cfg[j]; cost is the current global cost so the
//     implementation can compute a delta. It must not mutate state.
type Problem interface {
	// Size returns the number of variables n.
	Size() int
	// Cost returns the global error of cfg; 0 means cfg is a solution.
	Cost(cfg []int) int
	// CostOnVariable returns the error projected onto variable i.
	CostOnVariable(cfg []int, i int) int
	// CostIfSwap returns the global cost after a hypothetical swap of
	// positions i and j, given the current global cost.
	CostIfSwap(cfg []int, cost, i, j int) int
}

// MoveEvaluator is the batched companion of CostIfSwap: problems that
// can evaluate every swap partner of one variable in a single pass
// implement it, and the engine's move selection fills a whole cost row
// through one devirtualized call instead of issuing n-1 interface-
// dispatched CostIfSwap calls per iteration. Implementations typically
// hoist the removal of variable i's own contributions out of the
// partner loop, which a per-call CostIfSwap must redo for every j.
//
// Contract:
//   - CostsIfSwapAll fills out[j], for every j != i, with exactly the
//     value CostIfSwap(cfg, cost, i, j) would return, and out[i] with
//     cost (the stay-put cost). len(out) == len(cfg).
//   - Like CostIfSwap it must not change observable state: cfg and all
//     incremental caches are bit-identical afterwards. Search traces
//     must not depend on which path served the costs.
type MoveEvaluator interface {
	CostsIfSwapAll(cfg []int, cost, i int, out []int)
}

// SwapExecutor is implemented by problems that maintain incremental
// state. ExecutedSwap is invoked after the engine has swapped cfg[i] and
// cfg[j] so the problem can update cached structures in O(1)/O(n) rather
// than recomputing from scratch.
type SwapExecutor interface {
	ExecutedSwap(cfg []int, i, j int)
}

// ErrorVector is the incremental error-cache fast path: problems that
// can report the projected errors of all variables in one call
// implement it, and the engine's worst-variable selection scans the
// resulting vector instead of issuing one CostOnVariable call per
// variable per iteration.
//
// Contract:
//   - ErrorsOnVariables fills out[i] with exactly the value
//     CostOnVariable(cfg, i) would return, for every i; len(out) ==
//     len(cfg). The engine relies on this equivalence: search traces
//     must not depend on which path served the errors.
//   - Implementations typically cache the vector and invalidate or
//     update it through ExecutedSwap (and rebuild it in Cost), so
//     iterations that do not move — frozen local minima — serve the
//     vector for free and iterations that do move pay only for the
//     entries a swap actually changed. A problem that also implements
//     ResetHandler must invalidate the cache in Reset as well: the
//     engine does not call Cost or ExecutedSwap around a custom reset.
type ErrorVector interface {
	ErrorsOnVariables(cfg []int, out []int)
}

// MaintainedErrorVector is the delta-maintenance tier above ErrorVector:
// the problem keeps its error vector current at all times — ExecutedSwap
// updates only the entries a swap touches, and Cost (plus Reset, for
// ResetHandler implementers) rebuilds or revalidates it — so the engine
// skips the blanket invalidation after every swap and serves worst-
// variable selection straight from the live vector, with no per-
// iteration refetch or copy.
//
// Contract:
//   - LiveErrors returns a vector v with v[i] == CostOnVariable(cfg, i)
//     for every i, valid for the configuration the engine last
//     established through Cost / ExecutedSwap / Reset. Implementations
//     may revalidate lazily inside LiveErrors (e.g. after a full Cost
//     recompute), but a swap applied through ExecutedSwap must never
//     leave a stale entry behind.
//   - The returned slice is owned by the problem; callers treat it as
//     read-only and must not retain it across mutations.
//
// Problems that cannot maintain deltas simply do not implement this
// interface and fall back to the invalidate-and-refetch ErrorVector
// path (or, without ErrorVector, to per-variable CostOnVariable calls).
//
// SwapExecutor is embedded because delta maintenance is only possible
// when the problem sees every executed swap: without ExecutedSwap the
// engine would skip invalidation (that is the point of this interface)
// while nothing updated the vector, silently serving stale errors. The
// embedding makes that dependency structural instead of a convention.
type MaintainedErrorVector interface {
	ErrorVector
	SwapExecutor
	LiveErrors(cfg []int) []int
}

// ResetHandler is implemented by problems that want a custom partial
// reset (the C library's Reset hook). Reset perturbs cfg in place and
// returns the new global cost; incremental state must be left consistent
// with the returned cfg (for ErrorVector implementers that includes
// invalidating or refreshing the cached error vector). If a problem
// does not implement ResetHandler the engine applies a generic partial
// shuffle followed by a full Cost recompute.
type ResetHandler interface {
	Reset(cfg []int, r *rng.Rand) int
}

// Tuner is implemented by problems that ship benchmark-specific engine
// parameters, like the per-benchmark settings compiled into the original
// C library. Tune is applied by TunedOptions on top of the engine
// defaults; Solve itself never tunes, so caller-supplied options are
// always authoritative.
type Tuner interface {
	Tune(o *Options)
}
