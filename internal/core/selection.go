package core

import (
	"math"

	"repro/internal/rng"
)

// This file holds the concrete strategy implementations: the default
// Adaptive Search triple (AdaptiveVariable, MinConflictMove,
// AdaptiveRestart) and the alternative walkers (RandomWalkVariable,
// MetropolisMove) used by heterogeneous portfolios. The exhaustive
// pair scan, which bypasses the variable/move split entirely, lives at
// the bottom as an engine method.

// AdaptiveVariable is the default VariableSelector: it picks the
// non-frozen variable with the highest projected error, breaking ties
// uniformly at random, and falls back to a uniformly random index when
// every variable is frozen — exactly the C library's behavior.
//
// When the problem implements ErrorVector the selector scans the
// incrementally maintained error vector instead of issuing one
// CostOnVariable call per variable; both paths produce identical
// selections (and consume the RNG identically), so the fast path never
// changes a trace.
type AdaptiveVariable struct{}

// SelectVariable implements VariableSelector. With an error vector the
// scan is a kernel over locals that compares the error before it looks
// at the tabu mark: an entry below the running best is neither a new
// maximum nor a tie, frozen or not, so most entries cost one load and
// one predictable branch, and the chosen index and every tie-break draw
// are those of selectVariableByCall, the frozen-first scan that
// problems without an ErrorVector still take.
func (AdaptiveVariable) SelectVariable(s *State) int {
	errs := s.Errors()
	if errs == nil {
		return selectVariableByCall(s)
	}
	marks, iter, r := s.Marks, s.Iter, s.Rand
	errs = errs[:len(marks)]
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

// selectVariableByCall is SelectVariable without an error vector: one
// CostOnVariable call per non-frozen variable, the same comparisons and
// the same draws.
func selectVariableByCall(s *State) int {
	worst := -1
	bestErr := math.MinInt
	ties := 0
	for i := range s.Cfg {
		if s.Frozen(i) {
			continue
		}
		err := s.Problem.CostOnVariable(s.Cfg, i)
		switch {
		case err > bestErr:
			bestErr = err
			worst = i
			ties = 1
		case err == bestErr:
			ties++
			if s.Rand.Intn(ties) == 0 {
				worst = i
			}
		}
	}
	if worst < 0 {
		worst = s.Rand.Intn(len(s.Cfg))
	}
	return worst
}

// MinConflictMove is the default MoveSelector: it scans all swap
// partners for the selected variable and returns the partner minimizing
// the resulting global cost, ties broken uniformly. Following the
// original Select_Var_Min_Conflict, "staying put" (j == i, cost
// unchanged) seeds the candidate pool, so sideways plateau moves
// compete with it on equal footing and strictly-worse moves are never
// taken; j == i on return signals a genuine local minimum. With
// Options.FirstBest set it returns the first strictly improving partner
// immediately.
type MinConflictMove struct{}

// SelectMove implements MoveSelector. When the problem implements
// MoveEvaluator the whole cost row is filled in one batched call and
// scanned by scanMin; the scan order, acceptance rules and tie-break
// RNG consumption are those of selectMoveByCall, so the fast path never
// changes a trace. FirstBest keeps the per-call path: its
// whole point is to stop evaluating at the first improving candidate,
// which an eager row fill would defeat.
func (MinConflictMove) SelectMove(s *State, i int) (j, cost int) {
	if s.moveEval == nil || s.Opts.FirstBest {
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

// selectMoveByCall is SelectMove through one CostIfSwap call per
// partner, returning at the first strict improvement under FirstBest.
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
			bestCost = c
			bestJ = cand
			ties = 1
			if s.Opts.FirstBest {
				return bestJ, bestCost
			}
		case c == bestCost:
			ties++
			if s.Rand.Intn(ties) == 0 {
				bestJ = cand
			}
		}
	}
	return bestJ, bestCost
}

// AdaptiveRestart is the default RestartPolicy, reproducing the C
// library's diversification: on a local minimum it either forces a
// random (possibly uphill) move with probability ProbSelectLocMin, or
// freezes the variable for FreezeLocMin iterations; when more than
// ResetLimit variables have been frozen since the last reset it
// requests a partial reset. Executed swaps freeze both variables for
// FreezeSwap iterations when that option is set.
type AdaptiveRestart struct {
	marked int // variables frozen since the last reset
}

// NewRun implements RestartPolicy.
func (p *AdaptiveRestart) NewRun(s *State) { p.marked = 0 }

// OnSwap implements RestartPolicy.
func (p *AdaptiveRestart) OnSwap(s *State, i, j int) {
	if f := s.Opts.FreezeSwap; f > 0 {
		s.Marks[i] = s.Iter + int64(f)
		s.Marks[j] = s.Iter + int64(f)
		p.marked += 2
	}
}

// OnLocalMinimum implements RestartPolicy.
func (p *AdaptiveRestart) OnLocalMinimum(s *State, i int) (vi, vj int, reset bool) {
	o := s.Opts
	n := len(s.Cfg)
	if o.ProbSelectLocMin > 0 && s.Rand.Float64() < o.ProbSelectLocMin {
		// Probabilistic escape: force the move on a random second
		// variable (possibly uphill), as in the C library's
		// prob_select_loc_min. In exhaustive mode the pair scan did not
		// elect a meaningful variable, so re-pick it at random too.
		if o.Exhaustive {
			i = s.Rand.Intn(n)
		}
		j := s.Rand.Intn(n - 1)
		if j >= i {
			j++
		}
		return i, j, false
	}
	s.Marks[i] = s.Iter + int64(o.FreezeLocMin)
	p.marked++
	if p.marked > o.ResetLimit {
		p.marked = 0
		return i, -1, true
	}
	return i, -1, false
}

// RandomWalkVariable selects a uniformly random non-frozen variable
// (falling back to a fully random index when everything is frozen),
// trading the O(n) error projection scan for maximal diversification.
// Combined with min-conflict moves this yields a random-walk/tabu
// strategy whose runtime distribution differs from classic Adaptive
// Search — useful as a portfolio ingredient.
type RandomWalkVariable struct{}

// SelectVariable implements VariableSelector by reservoir-sampling the
// non-frozen indices in one pass.
func (RandomWalkVariable) SelectVariable(s *State) int {
	pick := -1
	seen := 0
	for i := range s.Cfg {
		if s.Frozen(i) {
			continue
		}
		seen++
		if s.Rand.Intn(seen) == 0 {
			pick = i
		}
	}
	if pick < 0 {
		pick = s.Rand.Intn(len(s.Cfg))
	}
	return pick
}

// MetropolisMove samples Tries random swap partners for the selected
// variable, keeps the cheapest, and applies the Metropolis acceptance
// rule to it: improving and sideways moves are always accepted, uphill
// moves with probability exp(-delta/Temperature). A rejected uphill
// candidate is reported as a local minimum, falling through to the
// surrounding RestartPolicy (with the default AdaptiveRestart that
// still means freezes and resets — the thermal acceptance reduces how
// often that machinery engages, it does not replace it). Compared to
// the exhaustive min-conflict scan this trades O(n) swap evaluations
// per iteration for O(Tries).
type MetropolisMove struct {
	// Temperature is the uphill acceptance temperature T > 0. 0 selects
	// the default of 0.5 (uphill steps of +1 pass ~13% of the time).
	Temperature float64
	// Tries is the number of sampled partners per iteration. 0 selects
	// the default of 8.
	Tries int
}

// SelectMove implements MoveSelector. Degenerate sizes (n < 2) have no
// swap partner to sample: the selector reports a local minimum instead
// of panicking in Rand.Intn(0). The engine never drives such sizes
// (Solve short-circuits them), but MoveSelector is a public plug point,
// so the guard belongs here.
func (m *MetropolisMove) SelectMove(s *State, i int) (j, cost int) {
	n := len(s.Cfg)
	if n < 2 {
		return i, s.Cost
	}
	temp := m.Temperature
	if temp <= 0 {
		temp = 0.5
	}
	tries := m.Tries
	if tries <= 0 {
		tries = 8
	}
	bestJ, bestCost := i, math.MaxInt
	for t := 0; t < tries; t++ {
		cand := s.Rand.Intn(n - 1)
		if cand >= i {
			cand++
		}
		c := s.Problem.CostIfSwap(s.Cfg, s.Cost, i, cand)
		if c < bestCost {
			bestJ, bestCost = cand, c
		}
	}
	if bestCost <= s.Cost {
		return bestJ, bestCost
	}
	if s.Rand.Float64() < math.Exp(-float64(bestCost-s.Cost)/temp) {
		return bestJ, bestCost
	}
	return i, s.Cost
}

// selectBestPair scans every unordered variable pair and returns the
// swap minimizing the resulting cost (Exhaustive mode). "Staying put" is
// in the tie pool exactly as in MinConflictMove; i == j on return
// signals a strict local minimum. Tabu marks are ignored. Exhaustive
// mode replaces the strategy's variable/move selectors wholesale, since
// a pair scan has no separate variable-selection step. Problems
// implementing MoveEvaluator serve rows of the pair matrix through one
// batched call while the upper-triangle remainder of the row is the
// majority of it; the short tail rows, where a full-row bulk fill would
// mostly compute already-scanned pairs, fall back to per-call
// CostIfSwap — as does FirstBest mode, whose early exit an eager row
// fill would defeat. Values, scan order and tie-break RNG consumption
// are identical on every path.
func (e *engine) selectBestPair() (i, j, cost int) {
	st, r, firstBest := &e.st, e.rand, e.opts.FirstBest
	n := len(st.Cfg)
	bestI, bestJ := 0, 0
	bestCost := st.Cost
	ties := 1
	for a := 0; a < n; a++ {
		if !firstBest && st.moveEval != nil && 2*(n-1-a) >= n-1 {
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
