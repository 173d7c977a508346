package core

import (
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/rng"
)

// The selection kernels (SelectVariable, SelectMove, SelectAssign and
// the two exhaustive scans) promise the selection and the RNG
// consumption of the loops they replaced: one reference call
// (CostOnVariable, CostIfSwap, CostIfAssign) per candidate, where the
// kernels scan the live error vector and the batched rows. This file
// keeps those loops and compares the two over thousands of seeded
// random states: same return values, and the same next Rand.Uint64(),
// which differs as soon as one side draws once more or once less.

func refSelectVariable(s *State) int {
	worst := -1
	bestErr := math.MinInt
	ties := 0
	for i := range s.Cfg {
		if s.Marks[i] >= s.Iter {
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

func refSelectMove(s *State, i int) (j, cost int) {
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

func refSelectAssign(s *State, i int) (v, cost int) {
	cur := s.Cfg[i]
	bestV := cur
	bestCost := s.Cost
	ties := 1
	for _, cand := range s.fd.Domain(i) {
		if cand == cur {
			continue
		}
		c := s.fd.CostIfAssign(s.Cfg, s.Cost, i, cand)
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
		for b := a + 1; b < n; b++ {
			c := e.p.CostIfSwap(e.st.Cfg, e.st.Cost, a, b)
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
	for a, cur := range st.Cfg {
		for _, val := range st.fd.Domain(a) {
			if val == cur {
				continue
			}
			c := st.fd.CostIfAssign(st.Cfg, st.Cost, a, val)
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
// once, each contract served from the same tables as the references.
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
func (p *tableProblem) LiveErrors([]int) []int              { return p.errs }
func (p *tableProblem) Domain(i int) []int                  { return p.doms[i] }
func (p *tableProblem) CostIfAssign(_ []int, _, i, v int) int {
	return p.assign[i][sort.SearchInts(p.doms[i], v)]
}
func (p *tableProblem) CostsIfSwapAll(_ []int, _, i int, out []int)   { copy(out, p.swap[i]) }
func (p *tableProblem) CostsIfAssignAll(_ []int, _, i int, out []int) { copy(out, p.assign[i]) }
func (p *tableProblem) ExecutedSwap([]int, int, int)                  {}
func (p *tableProblem) ExecutedAssign([]int, int, int)                {}

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

// lazyVec serves LiveErrors as a problem that revalidates its vector
// lazily may: from a buffer of its own, refilled on each call. Between
// calls the test scribbles over the buffer, as an executed move leaves
// a stale cache behind until the next LiveErrors; a kernel that kept
// the slice of an earlier call reads the scribbles.
type lazyVec struct {
	*tableProblem
	buf []int
}

func (p *lazyVec) LiveErrors([]int) []int { return append(p.buf[:0], p.errs...) }

// The kernels' input paths, one subtest each:
//   - scan: FirstBest on, so every move kernel evaluates one candidate
//     per call and stops at the first improvement;
//   - bulk: FirstBest off, so every move kernel scans the batched rows;
//   - live: the live error vector is the problem's own table, which the
//     kernels must read and never write;
//   - vec: the vector is rebuilt on each LiveErrors call, and
//     SelectVariable must ask for it again rather than keep an old one.
//
// live and vec draw FirstBest at random, a quarter of the time on.
func TestSelectionKernelsMatchReferenceLoops(t *testing.T) {
	for _, name := range []string{"scan", "vec", "live", "bulk"} {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(0); seed < 3000; seed++ {
				gen := rng.New(seed)
				n := 1 + int(seed%67)
				table, cfg := randomTable(gen, n)
				opts := Options{FirstBest: gen.Intn(4) == 0}
				switch name {
				case "scan":
					opts.FirstBest = true
				case "bulk":
					opts.FirstBest = false
				}
				var p Problem = table
				var lazy *lazyVec
				if name == "vec" {
					lazy = &lazyVec{table, make([]int, n)}
					p = lazy
				}
				errs := append([]int(nil), table.errs...)
				// Two states over one table, their streams in step.
				ref := NewState(p, opts, seed, append([]int(nil), cfg...))
				got := NewState(p, opts, seed, append([]int(nil), cfg...))
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
				if lazy != nil {
					for k := range lazy.buf {
						lazy.buf[k] = math.MaxInt - k // stale: above every error
					}
					if want, have := refSelectVariable(ref), got.SelectVariable(); want != have {
						t.Fatalf("seed %d n %d: SelectVariable over a revalidated vector = %d, reference loop %d", seed, n, have, want)
					}
					inStep("SelectVariable, again")
				}

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

				if name == "live" && !slices.Equal(table.errs, errs) {
					t.Fatalf("seed %d n %d: the kernels wrote into the live error vector", seed, n)
				}
			}
		})
	}
}
