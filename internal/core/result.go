package core

import (
	"fmt"
	"math"
	"time"
)

// CostUnknown is the sentinel stamped into Result.Cost when a walker
// never evaluated a configuration: a Solve call whose context was
// already cancelled, a virtual-mode walker the budget never reached, or
// a distributed shard synthesized after its worker was lost. Consumers
// that aggregate or report costs must treat it as "no cost known" — it
// must never be summed (it overflows any running total) or surfaced as
// a real cost.
const CostUnknown = math.MaxInt

// Result reports the outcome and the full execution statistics of one
// Solve call. Iteration counts are the machine-independent work measure
// used throughout the performance analysis: the platform simulator and
// the speedup estimators consume Iterations rather than wall time so the
// reproduction does not depend on the local silicon.
type Result struct {
	// Solved reports whether a zero-cost configuration was found.
	Solved bool
	// Solution is the solving permutation (a private copy), or nil.
	Solution []int
	// Cost is the final global cost: 0 when solved, otherwise the cost
	// of the best configuration seen in the last run. A run interrupted
	// before evaluating any configuration (context already cancelled at
	// Solve time) reports CostUnknown.
	Cost int
	// Strategy names the search strategy that produced the result
	// (Options.Strategy resolved through the registry).
	Strategy string

	// Iterations counts engine iterations summed over all restarts.
	Iterations int64
	// Swaps counts executed swaps (improving moves plus forced
	// local-minimum escapes). Permutation encodings only; always 0 on
	// the finite-domain path.
	Swaps int64
	// Assigns counts executed assignments (improving moves plus forced
	// local-minimum escapes). Finite-domain encodings only; always 0 on
	// the permutation path.
	Assigns int64
	// Flips counts the subset of Assigns landing on binary (two-value)
	// domains — the 0/1 flip moves of Boolean-shaped models.
	Flips int64
	// LocalMinima counts iterations whose best swap did not improve.
	LocalMinima int64
	// PlateauEscapes counts local minima resolved by the probabilistic
	// random-variable move (ProbSelectLocMin) rather than freezing.
	PlateauEscapes int64
	// Resets counts partial resets.
	Resets int64
	// Restarts counts full restarts performed (0 when the first run
	// succeeded).
	Restarts int
	// Elapsed is the wall-clock duration of the Solve call.
	Elapsed time.Duration
	// Interrupted reports that the run stopped on context cancellation
	// rather than on success or budget exhaustion.
	Interrupted bool
}

// String summarizes the result in one line for logs and CLI output.
func (r Result) String() string {
	status := "UNSOLVED"
	if r.Solved {
		status = "SOLVED"
	}
	if r.Interrupted {
		status += " (interrupted)"
	}
	return fmt.Sprintf("%s cost=%d iters=%d swaps=%d locmin=%d resets=%d restarts=%d in %v",
		status, r.Cost, r.Iterations, r.Swaps, r.LocalMinima, r.Resets, r.Restarts, r.Elapsed)
}
