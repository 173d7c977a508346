package core

import "math"

// This file is the finite-domain twin of the engine loop in engine.go.
// Solve dispatches here when the problem implements FDProblem; the
// permutation loop is untouched so its traces (and the golden files
// pinning them) cannot move. The structure mirrors runOnce exactly —
// poll block, worst-variable selection, move, local-minimum handling —
// with assignments in place of swaps:
//
//   - init draws each variable uniformly from its (reduced) domain
//     instead of shuffling a permutation;
//   - the move is cfg[i] = v, selected by AssignSelector;
//   - the probabilistic escape forces a uniformly random domain value
//     on the policy's chosen variable instead of a random swap;
//   - the generic partial reset re-draws a ResetFraction of the
//     variables from their domains;
//   - Monitor teleports validate domain membership instead of the
//     permutation invariant.

// solveFD is the FD counterpart of solve.
func (e *engine) solveFD() Result {
	n := e.p.Size()
	e.res = Result{Cost: CostUnknown, Strategy: e.strat.Name}
	e.bestCost = math.MaxInt

	// A 0-variable problem has a single (empty) configuration; report
	// its cost directly. n == 1 is NOT short-circuited: unlike a
	// 1-variable permutation, the single FD variable still ranges over
	// its domain, so the loop below has real work.
	if n == 0 {
		cfg := []int{}
		c := e.p.Cost(cfg)
		e.noteBest(c, cfg)
		e.res.Solved = c == 0
		e.finishResult()
		return e.res
	}

	if e.cancelled() {
		e.res.Interrupted = true
		e.finishResult()
		return e.res
	}

	e.st.Rand = e.rand
	e.st.Opts = &e.opts
	e.st.Marks = make([]int64, n)
	e.st.Cfg = make([]int, n)
	e.st.bindProblem(e.p, n)
	e.checkLeft = int64(e.opts.CheckEvery)

	runs := 0
	for {
		runs++
		solved, interrupted := e.runOnceFD(runs == 1)
		if solved || interrupted {
			e.res.Solved = solved
			e.res.Interrupted = interrupted
			break
		}
		if e.opts.MaxRuns > 0 && runs >= e.opts.MaxRuns {
			break
		}
	}
	e.res.Restarts = runs - 1
	e.finishResult()
	return e.res
}

// runOnceFD is the FD counterpart of runOnce.
func (e *engine) runOnceFD(first bool) (solved, interrupted bool) {
	o := &e.opts
	n := len(e.st.Cfg)

	if first && o.InitialConfig != nil {
		copy(e.st.Cfg, o.InitialConfig)
	} else {
		// Fresh random configuration: each variable drawn uniformly
		// from its domain.
		for i := range e.st.Cfg {
			d := e.fd.Domain(i)
			e.st.Cfg[i] = d[e.rand.Intn(len(d))]
		}
	}
	e.st.Cost = e.p.Cost(e.st.Cfg)
	e.st.InvalidateErrors()
	clear(e.st.Marks)
	e.st.Iter = 0
	e.strat.Restart.NewRun(&e.st)
	e.noteBest(e.st.Cost, e.st.Cfg)

	checkEvery := int64(o.CheckEvery)
	for e.st.Cost > 0 && e.st.Iter < o.MaxIterations {
		e.st.Iter++
		e.res.Iterations++
		e.checkLeft--
		if e.checkLeft == 0 {
			e.checkLeft = checkEvery
			if e.cancelled() {
				return false, true
			}
			if o.Monitor != nil {
				d := o.Monitor(e.res.Iterations, e.st.Cost, e.st.Cfg)
				if d.Stop {
					return false, true
				}
				if d.Restart {
					return false, false
				}
				if d.SetConfig != nil && e.adoptConfigFD(d.SetConfig) {
					e.strat.Restart.NewRun(&e.st)
					continue
				}
			}
		}

		var worst, bestV, bestCost int
		if o.Exhaustive {
			worst, bestV, bestCost = e.selectBestAssign()
		} else {
			worst = e.strat.Variable.SelectVariable(&e.st)
			bestV, bestCost = e.assignSel.SelectAssign(&e.st, worst)
		}

		if bestV != e.st.Cfg[worst] {
			e.doAssign(worst, bestV, bestCost)
			if e.assignRestart != nil {
				e.assignRestart.OnAssign(&e.st, worst)
			} else {
				e.strat.Restart.OnSwap(&e.st, worst, worst)
			}
			continue
		}

		// Local minimum: no acceptable value for the selected variable.
		e.res.LocalMinima++
		if n < 2 {
			// The restart policies reason about a second variable that
			// does not exist here; re-draw the sole variable instead.
			e.escapeAssign(0)
			continue
		}
		vi, vj, reset := e.strat.Restart.OnLocalMinimum(&e.st, worst)
		if vj >= 0 {
			// Forced escape: the perm engine would swap (vi, vj); the FD
			// counterpart forces a uniformly random domain value on vi
			// (possibly uphill, possibly a no-op on a singleton domain).
			e.escapeAssign(vi)
			continue
		}
		if reset {
			e.partialResetFD()
			clear(e.st.Marks)
		}
	}
	if e.st.Cost == 0 {
		e.noteBest(0, e.st.Cfg)
		return true, false
	}
	return false, e.cancelled()
}

// doAssign executes cfg[i] = v, records statistics, updates the
// problem's incremental state and the best-seen configuration.
func (e *engine) doAssign(i, v, newCost int) {
	old := e.st.Cfg[i]
	e.st.Cfg[i] = v
	if e.assigner != nil {
		e.assigner.ExecutedAssign(e.st.Cfg, i, old)
	}
	e.st.Cost = newCost
	e.st.InvalidateErrors()
	e.res.Assigns++
	if len(e.fd.Domain(i)) == 2 {
		e.res.Flips++
	}
	e.noteBest(newCost, e.st.Cfg)
}

// escapeAssign forces a uniformly random domain value onto variable i,
// the FD counterpart of the forced escape swap.
func (e *engine) escapeAssign(i int) {
	d := e.fd.Domain(i)
	v := d[e.rand.Intn(len(d))]
	c := e.fd.CostIfAssign(e.st.Cfg, e.st.Cost, i, v)
	e.doAssign(i, v, c)
	e.res.PlateauEscapes++
}

// adoptConfigFD teleports the walker to cfg (from a Monitor directive),
// validating domain membership instead of the permutation invariant.
func (e *engine) adoptConfigFD(cfg []int) bool {
	if ValidateFDConfig(e.fd, cfg) != nil {
		return false
	}
	copy(e.st.Cfg, cfg)
	e.st.Cost = e.p.Cost(e.st.Cfg)
	e.st.InvalidateErrors()
	clear(e.st.Marks)
	e.noteBest(e.st.Cost, e.st.Cfg)
	return true
}

// partialResetFD perturbs the configuration: a ResetHandler controls
// its own reset; otherwise a ResetFraction of the variables (drawn with
// replacement) is re-drawn from their domains and the cost recomputed.
func (e *engine) partialResetFD() {
	e.res.Resets++
	if e.resetter != nil {
		e.st.Cost = e.resetter.Reset(e.st.Cfg, e.rand)
	} else {
		n := len(e.st.Cfg)
		k := int(e.opts.ResetFraction * float64(n))
		if k < 2 {
			k = 2
		}
		if k > n {
			k = n
		}
		for t := 0; t < k; t++ {
			i := e.rand.Intn(n)
			d := e.fd.Domain(i)
			e.st.Cfg[i] = d[e.rand.Intn(len(d))]
		}
		e.st.Cost = e.p.Cost(e.st.Cfg)
	}
	e.st.InvalidateErrors()
	e.noteBest(e.st.Cost, e.st.Cfg)
}

// selectBestAssign scans every (variable, value) pair and returns the
// assignment minimizing the resulting cost — Exhaustive mode on the FD
// encoding, the counterpart of selectBestPair. "Staying put" seeds the
// tie pool; v == cfg[i] on return signals a strict local minimum. Tabu
// marks are ignored, as on the perm path. Batched AssignEvaluator rows
// serve whole domains when available; FirstBest keeps the per-call path
// and returns the first strict improvement.
func (e *engine) selectBestAssign() (i, v, cost int) {
	st, r, firstBest := &e.st, e.rand, e.opts.FirstBest
	bestI, bestV := 0, st.Cfg[0]
	bestCost := st.Cost
	ties := 1
	for a, cur := range st.Cfg {
		d := e.fd.Domain(a)
		if !firstBest && st.assignEval != nil {
			costs := st.assignBuf[:len(d)]
			st.assignEval.CostsIfAssignAll(st.Cfg, st.Cost, a, costs)
			var pick int
			pick, bestCost, ties = scanMin(costs, indexOf(d, cur), bestCost, ties, r)
			if pick >= 0 {
				bestI, bestV = a, d[pick]
			}
			continue
		}
		for _, val := range d {
			if val == cur {
				continue
			}
			c := e.fd.CostIfAssign(st.Cfg, st.Cost, a, val)
			switch {
			case c < bestCost:
				bestCost = c
				bestI, bestV = a, val
				ties = 1
				if firstBest {
					return bestI, bestV, bestCost
				}
			case c == bestCost:
				ties++
				if r.Intn(ties) == 0 {
					bestI, bestV = a, val
				}
			}
		}
	}
	return bestI, bestV, bestCost
}
