package core

import (
	"math"
	"sort"
	"testing"

	"repro/internal/rng"
)

// The selection kernels (SelectVariable, SelectMove, SelectAssign and
// the two exhaustive scans) promise the selection and the RNG
// consumption of the loops they replaced. This file keeps those loops,
// copied as they stood before the kernels, and compares the two over
// thousands of seeded random states: same return values, and the same
// next Rand.Uint64(), which differs as soon as one side draws once more
// or once less.

func refSelectVariable(s *State) int {
	worst := -1
	bestErr := math.MinInt
	ties := 0
	errs := s.Errors()
	for i := range s.Cfg {
		if s.Frozen(i) {
			continue
		}
		var err int
		if errs != nil {
			err = errs[i]
		} else {
			err = s.Problem.CostOnVariable(s.Cfg, i)
		}
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

func refSelectMove(s *State, i int) (j, cost int) {
	bestJ := i
	bestCost := s.Cost
	ties := 1
	if costs := s.SwapCosts(i); costs != nil && !s.Opts.FirstBest {
		for cand, c := range costs {
			if cand == i {
				continue
			}
			switch {
			case c < bestCost:
				bestCost = c
				bestJ = cand
				ties = 1
			case c == bestCost:
				ties++
				if s.Rand.Intn(ties) == 0 {
					bestJ = cand
				}
			}
		}
		return bestJ, bestCost
	}
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

func refSelectAssign(s *State, i int) (v, cost int) {
	d := s.DomainOf(i)
	cur := s.Cfg[i]
	bestV := cur
	bestCost := s.Cost
	ties := 1
	if costs := s.AssignCosts(i); costs != nil && !s.Opts.FirstBest {
		for k, c := range costs {
			if d[k] == cur {
				continue
			}
			switch {
			case c < bestCost:
				bestCost = c
				bestV = d[k]
				ties = 1
			case c == bestCost:
				ties++
				if s.Rand.Intn(ties) == 0 {
					bestV = d[k]
				}
			}
		}
		return bestV, bestCost
	}
	for _, cand := range d {
		if cand == cur {
			continue
		}
		c := s.CostIfAssign(i, cand)
		switch {
		case c < bestCost:
			bestCost = c
			bestV = cand
			ties = 1
			if s.Opts.FirstBest {
				return bestV, bestCost
			}
		case c == bestCost:
			ties++
			if s.Rand.Intn(ties) == 0 {
				bestV = cand
			}
		}
	}
	return bestV, bestCost
}

func refSelectBestPair(e *engine) (i, j, cost int) {
	n := len(e.st.Cfg)
	bestI, bestJ := 0, 0
	bestCost := e.st.Cost
	ties := 1
	for a := 0; a < n; a++ {
		var costs []int
		if !e.opts.FirstBest && 2*(n-1-a) >= n-1 {
			costs = e.st.SwapCosts(a)
		}
		for b := a + 1; b < n; b++ {
			var c int
			if costs != nil {
				c = costs[b]
			} else {
				c = e.p.CostIfSwap(e.st.Cfg, e.st.Cost, a, b)
			}
			switch {
			case c < bestCost:
				bestCost = c
				bestI, bestJ = a, b
				ties = 1
				if e.opts.FirstBest {
					return bestI, bestJ, bestCost
				}
			case c == bestCost:
				ties++
				if e.rand.Intn(ties) == 0 {
					bestI, bestJ = a, b
				}
			}
		}
	}
	return bestI, bestJ, bestCost
}

func refSelectBestAssign(e *engine) (i, v, cost int) {
	st := &e.st
	bestI, bestV := 0, st.Cfg[0]
	bestCost := st.Cost
	ties := 1
	for a := range st.Cfg {
		d := st.fd.Domain(a)
		cur := st.Cfg[a]
		var costs []int
		if !e.opts.FirstBest {
			costs = st.AssignCosts(a)
		}
		for k, val := range d {
			if val == cur {
				continue
			}
			var c int
			if costs != nil {
				c = costs[k]
			} else {
				c = st.fd.CostIfAssign(st.Cfg, st.Cost, a, val)
			}
			switch {
			case c < bestCost:
				bestCost = c
				bestI, bestV = a, val
				ties = 1
				if e.opts.FirstBest {
					return bestI, bestV, bestCost
				}
			case c == bestCost:
				ties++
				if e.rand.Intn(ties) == 0 {
					bestI, bestV = a, val
				}
			}
		}
	}
	return bestI, bestV, bestCost
}

// tableProblem answers every query from tables the test fills at
// random: nothing relates an error to a cost, which the selectors do
// not need. It is a permutation problem and a finite-domain one at
// once; the wrappers below add the fast-path interfaces one by one.
type tableProblem struct {
	cost   int
	errs   []int   // errs[i] = CostOnVariable(i)
	swap   [][]int // swap[i][j] = CostIfSwap(i, j); swap[i][i] = cost
	doms   [][]int // sorted domains
	assign [][]int // assign[i][k] = CostIfAssign(i, doms[i][k])
}

func (p *tableProblem) Size() int                           { return len(p.errs) }
func (p *tableProblem) Cost([]int) int                      { return p.cost }
func (p *tableProblem) CostOnVariable(_ []int, i int) int   { return p.errs[i] }
func (p *tableProblem) CostIfSwap(_ []int, _, i, j int) int { return p.swap[i][j] }
func (p *tableProblem) Domain(i int) []int                  { return p.doms[i] }
func (p *tableProblem) CostIfAssign(_ []int, _, i, v int) int {
	return p.assign[i][sort.SearchInts(p.doms[i], v)]
}

type tableVec struct{ *tableProblem }

func (p tableVec) ErrorsOnVariables(_ []int, out []int) { copy(out, p.errs) }

type tableLive struct{ tableVec }

func (p tableLive) LiveErrors([]int) []int { return p.errs }

type tableBulk struct{ *tableProblem }

func (p tableBulk) CostsIfSwapAll(_ []int, _, i int, out []int)   { copy(out, p.swap[i]) }
func (p tableBulk) CostsIfAssignAll(_ []int, _, i int, out []int) { copy(out, p.assign[i]) }

// randomTable draws a problem of n variables and a configuration inside
// its domains. Values come from ranges a few wide, so equal errors and
// equal costs — the draws under test — are the rule; sometimes from a
// single value, so that everything ties.
func randomTable(r *rng.Rand, n int) (*tableProblem, []int) {
	spread := func() int { return 1 + r.Intn(4)*r.Intn(2) } // 1 half the time
	p := &tableProblem{cost: 5, errs: make([]int, n), swap: make([][]int, n), doms: make([][]int, n), assign: make([][]int, n)}
	cfg := make([]int, n)
	errSpread, costSpread := spread(), spread()
	for i := range p.errs {
		p.errs[i] = r.Intn(errSpread) - 2 // negative errors included
		p.swap[i] = make([]int, n)
		for j := range p.swap[i] {
			p.swap[i][j] = p.cost - 1 + r.Intn(costSpread)
		}
		p.swap[i][i] = p.cost
		for v := 0; v < 6; v++ {
			if r.Intn(2) == 0 {
				p.doms[i] = append(p.doms[i], v)
			}
		}
		if len(p.doms[i]) == 0 {
			p.doms[i] = []int{r.Intn(6)}
		}
		cur := r.Intn(len(p.doms[i]))
		cfg[i] = p.doms[i][cur]
		p.assign[i] = make([]int, len(p.doms[i]))
		for k := range p.assign[i] {
			p.assign[i][k] = p.cost - 1 + r.Intn(costSpread)
		}
		p.assign[i][cur] = p.cost
	}
	return p, cfg
}

// freeze sets the tabu marks of s: every variable, none, or a random
// half, by mode.
func freeze(s *State, r *rng.Rand, mode int) {
	s.Iter = 10
	for i := range s.Marks {
		switch {
		case mode == 0, mode == 2 && r.Intn(2) == 0:
			s.Marks[i] = s.Iter + int64(r.Intn(3)) // frozen: mark >= Iter
		default:
			s.Marks[i] = int64(r.Intn(10)) // expired
		}
	}
}

func TestSelectionKernelsMatchReferenceLoops(t *testing.T) {
	wrappers := map[string]func(*tableProblem) Problem{
		"scan": func(p *tableProblem) Problem { return p },
		"vec":  func(p *tableProblem) Problem { return tableVec{p} },
		"live": func(p *tableProblem) Problem { return tableLive{tableVec{p}} },
		"bulk": func(p *tableProblem) Problem { return tableBulk{p} },
	}
	for name, wrap := range wrappers {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(0); seed < 3000; seed++ {
				gen := rng.New(seed)
				n := 1 + int(seed%67)
				table, cfg := randomTable(gen, n)
				opts := Options{FirstBest: gen.Intn(4) == 0}
				// Two states over one table, their streams in step.
				ref := NewState(wrap(table), opts, seed, append([]int(nil), cfg...))
				got := NewState(wrap(table), opts, seed, append([]int(nil), cfg...))
				if noVector := name == "scan" || name == "bulk"; noVector != (got.Errors() == nil) {
					t.Fatalf("%s: Errors() == nil is %v", name, got.Errors() == nil)
				}
				freeze(ref, gen, int(seed%3))
				copy(got.Marks, ref.Marks)
				got.Iter = ref.Iter
				inStep := func(what string) {
					t.Helper()
					if a, b := ref.Rand.Uint64(), got.Rand.Uint64(); a != b {
						t.Fatalf("seed %d n %d: %s consumed the stream differently", seed, n, what)
					}
				}

				if want, have := refSelectVariable(ref), got.SelectVariable(); want != have {
					t.Fatalf("seed %d n %d: SelectVariable = %d, reference loop %d", seed, n, have, want)
				}
				inStep("SelectVariable")

				i := gen.Intn(n)
				wj, wc := refSelectMove(ref, i)
				hj, hc := got.SelectMove(i)
				if wj != hj || wc != hc {
					t.Fatalf("seed %d n %d: SelectMove(%d) = (%d, %d), reference loop (%d, %d)", seed, n, i, hj, hc, wj, wc)
				}
				inStep("SelectMove")

				wv, wc := refSelectAssign(ref, i)
				hv, hc := got.SelectAssign(i)
				if wv != hv || wc != hc {
					t.Fatalf("seed %d n %d: SelectAssign(%d) = (%d, %d), reference loop (%d, %d)", seed, n, i, hv, hc, wv, wc)
				}
				inStep("SelectAssign")

				// The exhaustive scans are engine methods; an engine needs
				// no more than its state, problem, options and stream.
				engines := [2]*engine{}
				for k, s := range []*State{ref, got} {
					engines[k] = &engine{p: s.Problem, opts: opts, rand: s.Rand, st: *s}
				}
				wi, wj, wc := refSelectBestPair(engines[0])
				hi, hj, hc := engines[1].selectBestPair()
				if wi != hi || wj != hj || wc != hc {
					t.Fatalf("seed %d n %d: selectBestPair = (%d, %d, %d), reference loop (%d, %d, %d)", seed, n, hi, hj, hc, wi, wj, wc)
				}
				inStep("selectBestPair")
				wi, wv, wc = refSelectBestAssign(engines[0])
				hi, hv, hc = engines[1].selectBestAssign()
				if wi != hi || wv != hv || wc != hc {
					t.Fatalf("seed %d n %d: selectBestAssign = (%d, %d, %d), reference loop (%d, %d, %d)", seed, n, hi, hv, hc, wi, wv, wc)
				}
				inStep("selectBestAssign")
			}
		})
	}
}
