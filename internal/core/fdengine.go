package core

import "fmt"

// assignMoves is the finite-domain move set of the engine loop in
// engine.go: a move assigns cfg[i] = v with v in Domain(i), where
// swapMoves exchanges two variables. A fresh configuration draws each
// variable uniformly from its (reduced) domain, the forced escape and
// the partial reset re-draw variables the same way, and the
// selected variable's value comes from SelectAssign.
type assignMoves struct {
	fd FDProblem
}

// newAssignMoves runs what must precede the first draw on a
// finite-domain problem — the pre-search reduction pass and the proof
// that every domain is habitable; an empty one wraps
// domain.ErrUnsatisfiable, a proof surfaced as a typed error rather
// than an unsolved Result.
func newAssignMoves(fd FDProblem) (*assignMoves, error) {
	if dr, ok := fd.(DomainReducer); ok {
		if err := dr.ReduceDomains(); err != nil {
			return nil, fmt.Errorf("core: domain reduction: %w", err)
		}
	}
	if err := validateFDDomains(fd); err != nil {
		return nil, err
	}
	return &assignMoves{fd: fd}, nil
}

// minSize is 1: unlike a 1-variable permutation, a single FD variable
// still ranges over its domain.
func (*assignMoves) minSize() int { return 1 }

func (m *assignMoves) randomize(e *engine) {
	for i := range e.st.Cfg {
		e.st.Cfg[i] = m.draw(e, i)
	}
}

// draw returns a uniformly random value of variable i's domain.
func (m *assignMoves) draw(e *engine, i int) int {
	d := m.fd.Domain(i)
	return d[e.rand.Intn(len(d))]
}

func (m *assignMoves) step(e *engine) (worst int, moved bool) {
	var bestV, bestCost int
	if e.opts.Exhaustive {
		worst, bestV, bestCost = e.selectBestAssign()
	} else {
		worst = e.st.SelectVariable()
		bestV, bestCost = e.st.SelectAssign(worst)
	}
	if bestV == e.st.Cfg[worst] {
		return worst, false
	}
	m.assign(e, worst, bestV, bestCost)
	// The FD counterpart of the post-swap double freeze.
	if f := e.opts.FreezeSwap; f > 0 {
		e.freeze(worst, f)
	}
	return worst, true
}

// escape forces a uniformly random domain value on vi (possibly uphill,
// possibly a no-op on a singleton domain) where the permutation engine
// would swap (vi, vj).
func (m *assignMoves) escape(e *engine, vi, _ int) {
	v := m.draw(e, vi)
	m.assign(e, vi, v, m.fd.CostIfAssign(e.st.Cfg, e.st.Cost, vi, v))
}

// assign executes cfg[i] = v, records it and updates the incremental
// state of the problem.
func (m *assignMoves) assign(e *engine, i, v, newCost int) {
	old := e.st.Cfg[i]
	e.st.Cfg[i] = v
	m.fd.ExecutedAssign(e.st.Cfg, i, old)
	e.res.Assigns++
	if len(m.fd.Domain(i)) == 2 {
		e.res.Flips++
	}
	e.landed(newCost)
}

// perturb re-draws k variables, chosen with replacement, from their
// domains.
func (m *assignMoves) perturb(e *engine, k int) {
	for t := 0; t < k; t++ {
		i := e.rand.Intn(len(e.st.Cfg))
		e.st.Cfg[i] = m.draw(e, i)
	}
}

// selectBestAssign scans every (variable, value) pair and returns the
// assignment minimizing the resulting cost — Exhaustive mode on the FD
// encoding, the counterpart of selectBestPair. "Staying put" seeds the
// tie pool; v == cfg[i] on return signals a strict local minimum. Tabu
// marks are ignored, as on the perm path. A domain is one
// CostsIfAssignAll row; under FirstBest it is scanned per call instead,
// and the first strict improvement returned.
func (e *engine) selectBestAssign() (i, v, cost int) {
	st, r, firstBest := &e.st, e.rand, e.opts.FirstBest
	bestI, bestV := 0, st.Cfg[0]
	bestCost := st.Cost
	ties := 1
	for a, cur := range st.Cfg {
		d := st.fd.Domain(a)
		if !firstBest {
			costs := st.assignBuf[:len(d)]
			st.fd.CostsIfAssignAll(st.Cfg, st.Cost, a, costs)
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
			c := st.fd.CostIfAssign(st.Cfg, st.Cost, a, val)
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
