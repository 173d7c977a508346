package core

import (
	"math"

	"repro/internal/rng"
)

// This file holds Adaptive Search itself, the one algorithm the engine
// runs: worst-variable selection and min-conflict swap selection over
// *State, the freeze / escape / reset policy over the engine, and the
// exhaustive pair scan that replaces the first two in Exhaustive mode.
// The finite-domain counterparts of the move kernels are in fd.go.

// SelectVariable picks the non-frozen variable with the highest
// projected error, breaking ties uniformly at random, and falls back to
// a uniformly random index when every variable is frozen — exactly the
// C library's behavior.
//
// It scans the problem's live error vector as a kernel over locals that
// compares the error before it looks at the tabu mark: an entry below
// the running best is neither a new maximum nor a tie, frozen or not,
// so most entries cost one load and one predictable branch, while the
// chosen index and every tie-break draw are those of the frozen-first
// scan of the C library.
func (s *State) SelectVariable() int {
	marks, iter, r := s.Marks, s.Iter, s.Rand
	errs := s.Problem.LiveErrors(s.Cfg)[:len(marks)]
	worst, bestErr, ties := -1, math.MinInt, 0
	for i, err := range errs {
		if err < bestErr || marks[i] >= iter {
			continue
		}
		if err > bestErr {
			bestErr = err
			worst = i
			ties = 1
		} else {
			ties++
			if r.Intn(ties) == 0 {
				worst = i
			}
		}
	}
	if worst < 0 {
		worst = r.Intn(len(errs))
	}
	return worst
}

// SelectMove scans all swap partners of variable i and returns the
// partner j minimizing the resulting global cost, and that cost, ties
// broken uniformly. Following the original Select_Var_Min_Conflict,
// "staying put" (j == i, cost unchanged) seeds the candidate pool, so
// sideways plateau moves compete with it on equal footing and
// strictly-worse moves are never taken; j == i on return signals a
// genuine local minimum. With Options.FirstBest set it returns the
// first strictly improving partner immediately.
//
// The whole cost row is filled by one CostsIfSwapAll call and scanned
// by scanMin. FirstBest scans per call instead (selectMoveByCall, same
// order, acceptance rules and draws): its whole point is to stop
// evaluating at the first improving candidate, which an eager row fill
// would defeat.
func (s *State) SelectMove(i int) (j, cost int) {
	if s.Opts.FirstBest {
		return selectMoveByCall(s, i)
	}
	if pick, best, _ := scanMin(s.SwapCosts(i), i, s.Cost, 1, s.Rand); pick >= 0 {
		return pick, best
	}
	return i, s.Cost
}

// scanMin carries a cheapest-entry scan with uniform tie-breaking over
// one more row of costs, entry skip (-1: none) left out. bestCost and
// ties are the scan's state coming in and, returned, going out; pick is
// the entry of this row the scan now stands on, or -1 if the row left
// its earlier choice standing. It is the one loop behind every batched
// selection (SelectMove, SelectAssign and both exhaustive scans), which
// differ only in what a row and an entry are; comparisons and draws are
// those of the per-call loops, an entry above the best costing a load
// and a compare.
func scanMin(costs []int, skip, bestCost, ties int, r *rng.Rand) (pick, newBest, newTies int) {
	pick = -1
	for k, c := range costs {
		if c > bestCost || k == skip {
			continue
		}
		if c < bestCost {
			bestCost = c
			pick = k
			ties = 1
		} else {
			ties++
			if r.Intn(ties) == 0 {
				pick = k
			}
		}
	}
	return pick, bestCost, ties
}

// selectMoveByCall is SelectMove under FirstBest: one CostIfSwap call
// per partner, returning at the first strict improvement.
func selectMoveByCall(s *State, i int) (j, cost int) {
	bestJ := i
	bestCost := s.Cost
	ties := 1
	for cand := range s.Cfg {
		if cand == i {
			continue
		}
		c := s.Problem.CostIfSwap(s.Cfg, s.Cost, i, cand)
		switch {
		case c < bestCost:
			return cand, c
		case c == bestCost:
			ties++
			if s.Rand.Intn(ties) == 0 {
				bestJ = cand
			}
		}
	}
	return bestJ, bestCost
}

// freeze makes variable i tabu for the next f iterations and counts it
// towards the partial-reset threshold.
func (e *engine) freeze(i, f int) {
	e.st.Marks[i] = e.st.Iter + int64(f)
	e.marked++
}

// localMinimum is the C library's diversification on a local minimum at
// variable i: with probability ProbSelectLocMin it forces a move on a
// random second variable (possibly uphill), as in prob_select_loc_min;
// otherwise it freezes i for FreezeLocMin iterations and, once more
// than ResetLimit variables have been frozen since the last reset,
// partially resets the configuration and clears every mark. A problem
// of one variable (finite-domain only: minSize) has no second variable
// to reason about, so its escape is forced on the only one there is.
func (e *engine) localMinimum(i int) {
	o := &e.opts
	n := len(e.st.Cfg)
	if n < 2 {
		e.mv.escape(e, 0, 0)
		e.res.PlateauEscapes++
		return
	}
	if o.ProbSelectLocMin > 0 && e.rand.Float64() < o.ProbSelectLocMin {
		// In exhaustive mode the pair scan did not elect a meaningful
		// variable, so re-pick it at random too.
		if o.Exhaustive {
			i = e.rand.Intn(n)
		}
		j := e.rand.Intn(n - 1)
		if j >= i {
			j++
		}
		e.mv.escape(e, i, j)
		e.res.PlateauEscapes++
		return
	}
	e.freeze(i, o.FreezeLocMin)
	if e.marked > o.ResetLimit {
		e.marked = 0
		e.partialReset()
		clear(e.st.Marks)
	}
}

// selectBestPair scans every unordered variable pair and returns the
// swap minimizing the resulting cost (Exhaustive mode). "Staying put" is
// in the tie pool exactly as in SelectMove; i == j on return signals a
// strict local minimum. Tabu marks are ignored. Exhaustive mode
// replaces SelectVariable and SelectMove wholesale, since a pair scan
// has no separate variable-selection step. A row of the pair matrix is
// one CostsIfSwapAll call while the upper-triangle remainder of the row
// is the majority of it; the short tail rows, where a full-row fill
// would mostly compute already-scanned pairs, are scanned per call, as
// is every row under FirstBest, whose early exit an eager row fill
// would defeat. Values, scan order and draws are the same either way.
func (e *engine) selectBestPair() (i, j, cost int) {
	st, r, firstBest := &e.st, &e.rand, e.opts.FirstBest
	n := len(st.Cfg)
	bestI, bestJ := 0, 0
	bestCost := st.Cost
	ties := 1
	for a := 0; a < n; a++ {
		if !firstBest && 2*(n-1-a) >= n-1 {
			var pick int
			pick, bestCost, ties = scanMin(st.SwapCosts(a)[a+1:], -1, bestCost, ties, r)
			if pick >= 0 {
				bestI, bestJ = a, a+1+pick
			}
			continue
		}
		for b := a + 1; b < n; b++ {
			c := e.p.CostIfSwap(st.Cfg, st.Cost, a, b)
			switch {
			case c < bestCost:
				bestCost = c
				bestI, bestJ = a, b
				ties = 1
				if firstBest {
					return bestI, bestJ, bestCost
				}
			case c == bestCost:
				ties++
				if r.Intn(ties) == 0 {
					bestI, bestJ = a, b
				}
			}
		}
	}
	return bestI, bestJ, bestCost
}
