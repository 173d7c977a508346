package core

import (
	"errors"
	"fmt"
)

// Options configures one Adaptive Search engine. The zero value is not
// usable directly; call DefaultOptions (or Normalize) to fill defaults.
// The field set mirrors the tunables of the original C library
// (ad_solver's AdData): freeze tenures, reset thresholds, the
// probabilistic local-minimum escape, first-best move selection, and
// restart budgets.
//
// Options is also the engine part of the coordinator→worker run request
// (internal/dist): the JSON form carries every tunable, and neither the
// Seed, which multi-walk drivers derive per walker, nor the
// process-local Monitor hook.
type Options struct {
	// MaxIterations is the iteration budget of a single run; exhausting
	// it triggers a full restart. 0 selects a per-problem default of
	// max(10_000, 200*n).
	MaxIterations int64 `json:"max_iterations,omitempty"`

	// MaxRuns bounds the total number of runs: the first run plus
	// restarts. 0 selects the default — unlimited, matching the paper's
	// experiments which always run to the first solution (bound the
	// search with a context in that case). 1 disables restarts.
	MaxRuns int `json:"max_runs,omitempty"`

	// FreezeLocMin is the number of iterations a variable stays frozen
	// (tabu) after being identified as a local minimum. 0 selects the
	// default of 5, the most common setting of the C benchmarks.
	FreezeLocMin int `json:"freeze_loc_min,omitempty"`

	// FreezeSwap is the number of iterations both variables of an
	// executed swap stay frozen. 0 means no post-swap freezing (the C
	// default for the benchmarks used in the paper).
	FreezeSwap int `json:"freeze_swap,omitempty"`

	// ResetLimit is the number of simultaneously frozen variables that
	// triggers a partial reset. 0 selects the default of max(2, n/10).
	ResetLimit int `json:"reset_limit,omitempty"`

	// ResetFraction is the fraction of variables perturbed by a generic
	// partial reset (ignored when the problem implements ResetHandler).
	// 0 selects the default of 0.1 (the C library's 10%).
	ResetFraction float64 `json:"reset_fraction,omitempty"`

	// ProbSelectLocMin is the probability, upon hitting a local minimum,
	// of forcing a move on a random second variable instead of freezing
	// the worst one. This is the C library's prob_select_loc_min (there
	// expressed in percent). Must be in [0, 1].
	ProbSelectLocMin float64 `json:"prob_select_loc_min,omitempty"`

	// Strategy names the search algorithm. Adaptive Search is the one
	// there is, so the only legal values are "" and StrategyAdaptive;
	// Validate rejects any other name. The field stays so that run
	// requests naming it still read.
	Strategy string `json:"strategy,omitempty"`

	// FirstBest, when true, stops scanning swap candidates at the first
	// strictly improving move instead of the best one.
	FirstBest bool `json:"first_best,omitempty"`

	// Exhaustive, when true, scans every variable pair each iteration
	// and takes the best swap overall, instead of projecting errors and
	// swapping only the worst variable (the C library's ad.exhaustive).
	// O(n^2) per iteration, but the stronger moves pay off on small,
	// densely-constrained problems (e.g. the alpha cipher). Tabu marks
	// are ignored in this mode.
	Exhaustive bool `json:"exhaustive,omitempty"`

	// Seed seeds the engine's private RNG stream. Two runs with the same
	// problem, options and seed are bit-for-bit identical.
	Seed uint64 `json:"-"`

	// InitialConfig, when non-nil, is used (copied) as the starting
	// configuration of the first run instead of a random permutation.
	// It must be a permutation of [0, n).
	InitialConfig []int `json:"initial_config,omitempty"`

	// CheckEvery is the cancellation-poll period in iterations. The
	// engine checks the context every CheckEvery iterations; 0 selects
	// the default of 64. Smaller values react faster to first-solution
	// cancellation in multi-walk runs at a small cost in the hot loop.
	CheckEvery int `json:"check_every,omitempty"`

	// Monitor, when non-nil, is invoked every CheckEvery iterations
	// with the cumulative iteration count, the current cost and the
	// current configuration (a live view — callers must not retain or
	// mutate it). Its Directive can steer the run; the zero Directive
	// continues unchanged. This is the hook the dependent multi-walk
	// scheme (the paper's future-work section) uses to exchange elite
	// configurations between walkers.
	Monitor func(iter int64, cost int, cfg []int) Directive `json:"-"`
}

// DefaultCheckEvery is the cancellation/Monitor poll period selected
// when Options.CheckEvery is 0. Exported so drivers that tighten the
// poll period (the multi-walk exchange scheme clamps it to the exchange
// period) resolve the default exactly once, here.
const DefaultCheckEvery = 64

// StrategyAdaptive is classic Adaptive Search: worst-variable
// selection, min-conflict moves, freeze/reset diversification. It is
// the one search algorithm the engine runs, and the one legal non-empty
// value of Options.Strategy.
const StrategyAdaptive = "adaptive"

// Directive steers a running search from a Monitor callback.
type Directive struct {
	// Stop aborts the Solve call; the result reports Interrupted.
	Stop bool
	// Restart abandons the current run and starts the next one from a
	// fresh random configuration (counted against MaxRuns).
	Restart bool
	// SetConfig, when non-nil, teleports the walker to the given
	// configuration (copied; one that fails ValidateConfig is ignored).
	// Tabu marks are cleared.
	SetConfig []int
}

// DefaultOptions returns the engine defaults for a problem of n
// variables. These are the baseline settings on top of which
// problem-specific Tune hooks and caller overrides are applied.
func DefaultOptions(n int) Options {
	o := Options{}
	o.normalize(n)
	return o
}

// normalize fills zero fields with defaults for an n-variable problem.
func (o *Options) normalize(n int) {
	if o.MaxIterations == 0 {
		it := int64(200 * n)
		if it < 10_000 {
			it = 10_000
		}
		o.MaxIterations = it
	}
	if o.FreezeLocMin == 0 {
		o.FreezeLocMin = 5
	}
	if o.ResetLimit == 0 {
		o.ResetLimit = n / 10
		if o.ResetLimit < 2 {
			o.ResetLimit = 2
		}
	}
	if o.ResetFraction == 0 {
		o.ResetFraction = 0.1
	}
	if o.CheckEvery == 0 {
		o.CheckEvery = DefaultCheckEvery
	}
}

// Validate reports configuration errors that normalize cannot repair.
// It is the one range check of the engine's tunables: Solve, the solve
// service's admission and the distributed run protocol all call it.
// Whether InitialConfig fits the problem is ValidateConfig's question,
// which Solve asks.
func (o *Options) Validate() error {
	if !(o.ProbSelectLocMin >= 0 && o.ProbSelectLocMin <= 1) { // NaN fails too
		return fmt.Errorf("core: ProbSelectLocMin = %v outside [0,1]", o.ProbSelectLocMin)
	}
	if !(o.ResetFraction >= 0 && o.ResetFraction <= 1) {
		return fmt.Errorf("core: ResetFraction = %v outside [0,1]", o.ResetFraction)
	}
	if o.MaxIterations < 0 {
		return errors.New("core: MaxIterations must be >= 0")
	}
	if o.MaxRuns < 0 {
		return errors.New("core: MaxRuns must be >= 0 (0 means unlimited)")
	}
	if o.FreezeLocMin < 0 || o.FreezeSwap < 0 || o.ResetLimit < 0 || o.CheckEvery < 0 {
		return errors.New("core: freeze/reset/check options must be >= 0")
	}
	if o.Strategy != "" && o.Strategy != StrategyAdaptive {
		return fmt.Errorf("core: unknown strategy %q (the one strategy is %q)", o.Strategy, StrategyAdaptive)
	}
	return nil
}
