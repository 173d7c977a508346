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
// A problem plugs in through its encoding's one contract, PermProblem
// or FDProblem: the live error vector, the batched row of its move and
// the executor that keeps its incremental state current, as every
// benchmark of the original C library supplies Cost_If_Swap and
// Executed_Swap. Solve refuses a problem that implements neither, so no
// search runs on a slower path.
package core

// Problem is what every encoding answers about a CSP over n variables:
// the reference evaluations, which the consistency tests hold the
// batched ones to, and the live error vector the engine selects from.
// The engine owns the configuration slice and mutates it in place; a
// Problem must never retain it between calls. Solve runs a Problem
// that is also a PermProblem or an FDProblem, and refuses any other.
//
// Contract:
//   - Cost fully recomputes the global error of cfg and, for problems
//     that keep incremental state (cached row sums, difference tables,
//     ...), rebuilds that state from scratch: every piece of state the
//     other methods read, so that nothing an earlier search left behind
//     survives it. The engine calls Cost before its first step, which is
//     what lets a Factory hand a finished walker's instance to the next
//     one (Factory). Cost must return 0 if and only if cfg is a
//     solution.
//   - CostOnVariable returns the error projected onto variable i under
//     the current configuration. It must be consistent with Cost in the
//     weak sense required by Adaptive Search: variables involved in
//     violated constraints have positive error, satisfied-only variables
//     have error <= any violating variable. It must not mutate state.
//   - CostIfSwap returns the global cost that Cost would return after
//     swapping cfg[i] and cfg[j]; cost is the current global cost so the
//     implementation can compute a delta. It must not mutate state.
//   - LiveErrors returns a vector v with v[i] == CostOnVariable(cfg, i)
//     for every i, valid for the configuration the engine last
//     established through Cost and the encoding's executor. It may
//     revalidate lazily (after a full Cost, say), but an executed move
//     must never leave a stale entry behind. The slice is owned by the
//     problem; callers read it and do not retain it across mutations.
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
	// LiveErrors returns every variable's projected error, current.
	LiveErrors(cfg []int) []int
}

// PermProblem is the permutation encoding's contract: a move swaps two
// variables, so all-different stays implicit.
//
// Contract, on top of Problem's:
//   - CostsIfSwapAll fills out[j], for every j != i, with exactly the
//     value CostIfSwap(cfg, cost, i, j) would return, and out[i] with
//     cost (the stay-put cost); len(out) == len(cfg). It must leave cfg
//     and every incremental cache bit-identical. Implementations
//     typically hoist the removal of variable i's own contributions out
//     of the partner loop, which a per-call CostIfSwap must redo for
//     every j.
//   - ExecutedSwap is invoked after the engine has swapped cfg[i] and
//     cfg[j], so the problem updates its cached structures, the live
//     error vector among them, in O(delta) rather than recomputing them.
type PermProblem interface {
	Problem
	CostsIfSwapAll(cfg []int, cost, i int, out []int)
	ExecutedSwap(cfg []int, i, j int)
}

// Tuner is implemented by problems that ship benchmark-specific engine
// parameters, like the per-benchmark settings compiled into the original
// C library. Tune is applied by TunedOptions on top of the engine
// defaults; Solve itself never tunes, so caller-supplied options are
// always authoritative.
type Tuner interface {
	Tune(o *Options)
}

// Factory hands out the instances of one problem, one per walker, and
// takes back the ones walkers are done with. Encodings keep incremental
// state, so two walkers never hold one instance at the same time.
//
// A Factory is one function with two uses. New — f called with no
// argument — returns an instance nobody else holds: one taken back
// earlier, or a fresh one. Recycle — f called with the instances — takes
// them back and returns nil, nil. A walker recycles its instance once
// Solve has returned normally, and never one that a panic or an error
// left behind; whoever recycles an instance stops using it and hands
// back only what this Factory handed out. A recycled instance searches
// exactly as a fresh one, because Cost rebuilds every piece of state
// the other methods read (Problem) and runs before the first step.
type Factory func(done ...Problem) (Problem, error)

// New returns an instance nobody else holds.
func (f Factory) New() (Problem, error) { return f() }

// Recycle hands p back to f, which may hand it out again.
func (f Factory) Recycle(p Problem) { f(p) }

// FactoryFunc is the Factory of a constructor: New calls build, and
// Recycle drops the instance.
func FactoryFunc(build func() (Problem, error)) Factory {
	return func(done ...Problem) (Problem, error) {
		if len(done) > 0 {
			return nil, nil
		}
		return build()
	}
}
