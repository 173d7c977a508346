package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/domain"
)

// This file defines the finite-domain (FD) encoding layer: the
// interfaces a non-permutation problem implements, the State accessors
// FD move selectors use, and the FD implementations of the built-in
// selectors. Both encodings run the one engine loop; an FD problem runs
// it over assign moves (fdengine.go) instead of swaps, with batched
// assign evaluation instead of CostsIfSwapAll and a pre-search
// domain-reduction pass.

// FDProblem is a CSP over finite domains: variable i takes values from
// Domain(i) instead of the permutation invariant, and the engine's move
// is an assignment cfg[i] = v rather than a swap. Implementing this
// interface switches Solve onto assign moves; the embedded Problem
// contract (Cost, CostOnVariable, CostIfSwap) is unchanged, with
// CostIfSwap retained because harnesses and exchange probes still
// evaluate swap perturbations on any encoding.
//
// Contract:
//   - Domain returns the current domain of variable i: sorted ascending,
//     distinct, non-empty (after reduction), owned by the problem.
//     Callers must not mutate or retain it. Domains never grow during a
//     Solve call.
//   - CostIfAssign returns the global cost Cost would report after
//     setting cfg[i] = v, given the current cost; v == cfg[i] must
//     return cost unchanged. Like CostIfSwap it must not mutate
//     observable state.
type FDProblem interface {
	Problem
	Domain(i int) []int
	CostIfAssign(cfg []int, cost, i, v int) int
}

// AssignExecutor is the FD counterpart of SwapExecutor: problems with
// incremental state implement it, and the engine invokes ExecutedAssign
// after writing cfg[i] (old is the previous value) so caches update in
// O(delta) instead of a full Cost rebuild. A problem maintaining a live
// error vector (MaintainedErrorVector) must keep it current here, just
// as ExecutedSwap does on the perm path.
type AssignExecutor interface {
	ExecutedAssign(cfg []int, i, old int)
}

// AssignEvaluator is the batched companion of CostIfAssign, mirroring
// MoveEvaluator: one call fills the cost of every candidate value of
// variable i, letting move selection scan a dense row instead of
// issuing len(Domain(i)) interface-dispatched calls.
//
// Contract:
//   - CostsIfAssignAll fills out[k], for every k, with exactly the value
//     CostIfAssign(cfg, cost, i, Domain(i)[k]) would return (so the
//     entry of the current value holds cost). len(out) ==
//     len(Domain(i)).
//   - It must not change observable state, and search traces must not
//     depend on which path served the costs.
type AssignEvaluator interface {
	CostsIfAssignAll(cfg []int, cost, i int, out []int)
}

// DomainReducer is implemented by FD problems that support the
// pre-search domain-reduction pass. Solve calls ReduceDomains once,
// before any iteration; an error wrapping domain.ErrUnsatisfiable
// proves the instance has no solution and aborts the search with that
// typed error. Reduction must be sound (never remove a value some
// solution uses) and idempotent — so it may be a no-op on an instance
// already reduced, which is what makes Solve's own call free on the
// instances a reduced template hands out (see Cloner).
type DomainReducer interface {
	ReduceDomains() error
}

// Cloner is implemented by problems whose construction is mostly an
// immutable model (ids, adjacency, reduced domains) that instances can
// share. Clone returns an unused instance — exactly what a fresh
// construction followed by the reductions the receiver has had would
// be, so search traces cannot tell them apart — that shares the model
// and owns its mutable search state. It must read nothing a search
// writes: callers clone an instance while another goroutine is
// searching on it. Optional: problems.NewTemplate builds fresh
// instances of an encoding without it.
type Cloner interface {
	Clone() Problem
}

// AssignSelector is the FD counterpart of MoveSelector: given the
// selected variable it picks the value to assign. Strategies whose
// MoveSelector also implements AssignSelector work on both encodings;
// Solve rejects FD problems under a strategy without one.
type AssignSelector interface {
	// SelectAssign returns the value v to assign to variable i and the
	// global cost the assignment would produce. Returning v == s.Cfg[i]
	// reports that no acceptable move exists (a local minimum).
	SelectAssign(s *State, i int) (v, cost int)
}

// AssignRestartPolicy is the optional FD hook on a RestartPolicy:
// OnAssign is invoked after an executed assignment on variable i, the
// counterpart of OnSwap's post-swap freezes. Policies without it get
// OnSwap(s, i, i) instead.
type AssignRestartPolicy interface {
	OnAssign(s *State, i int)
}

// ValidateFDConfig is ValidateConfig for a problem known to be
// finite-domain: one value per variable, each inside the variable's
// current domain.
func ValidateFDConfig(p FDProblem, cfg []int) error {
	if len(cfg) != p.Size() {
		return errConfigLength(len(cfg), p.Size())
	}
	for i, v := range cfg {
		d := p.Domain(i)
		k := sort.SearchInts(d, v)
		if k >= len(d) || d[k] != v {
			return fmt.Errorf("core: value %d is outside the domain of variable %d", v, i)
		}
	}
	return nil
}

// validateFDDomains checks every domain is non-empty, returning the
// typed unsatisfiable error otherwise (callers, the service API among
// them, match it with errors.Is). Solve runs it after reduction so
// problems without a DomainReducer still fail loudly on an empty
// domain instead of panicking in the init draw.
func validateFDDomains(p FDProblem) error {
	n := p.Size()
	for i := 0; i < n; i++ {
		if len(p.Domain(i)) == 0 {
			return fmt.Errorf("core: variable %d has an empty domain: %w", i, domain.ErrUnsatisfiable)
		}
	}
	return nil
}

// DomainOf returns the current domain of variable i, or nil when the
// problem is not finite-domain. Owned by the problem; read-only.
func (s *State) DomainOf(i int) []int {
	if s.fd == nil {
		return nil
	}
	return s.fd.Domain(i)
}

// CostIfAssign returns the global cost after a hypothetical assignment
// cfg[i] = v under the current configuration.
func (s *State) CostIfAssign(i, v int) int {
	return s.fd.CostIfAssign(s.Cfg, s.Cost, i, v)
}

// AssignCosts returns the cost row for variable i — entry k holds the
// global cost assigning Domain(i)[k] would produce — or nil when the
// problem does not implement AssignEvaluator. Like SwapCosts the slice
// is a reused buffer: consume before the next call, do not retain.
func (s *State) AssignCosts(i int) []int {
	if s.assignEval == nil {
		return nil
	}
	buf := s.assignBuf[:len(s.fd.Domain(i))]
	s.assignEval.CostsIfAssignAll(s.Cfg, s.Cost, i, buf)
	return buf
}

// bindFD wires the FD fast-path interfaces of p into the state; no-op
// for permutation problems.
func (s *State) bindFD(p Problem, n int) {
	fd, ok := p.(FDProblem)
	if !ok {
		return
	}
	s.fd = fd
	if ae, ok := p.(AssignEvaluator); ok {
		s.assignEval = ae
		maxd := 0
		for i := 0; i < n; i++ {
			if l := len(fd.Domain(i)); l > maxd {
				maxd = l
			}
		}
		s.assignBuf = make([]int, maxd)
	}
}

// SelectAssign implements AssignSelector for MinConflictMove: scan the
// variable's domain, keep the value minimizing the global cost, ties
// broken uniformly, with the current value seeding the pool so sideways
// moves compete on equal footing and strictly-worse values are never
// taken. The batched AssignEvaluator row is scanned by scanMin;
// selectAssignByCall scans in the same order with the same acceptance
// rules and RNG consumption, so FD traces do not depend on which path
// served the costs. FirstBest keeps the per-call path for the same
// reason SelectMove does: its point is to stop at the first improvement.
func (MinConflictMove) SelectAssign(s *State, i int) (v, cost int) {
	d := s.DomainOf(i)
	if s.assignEval == nil || s.Opts.FirstBest {
		return selectAssignByCall(s, i, d)
	}
	costs := s.assignBuf[:len(d)]
	s.assignEval.CostsIfAssignAll(s.Cfg, s.Cost, i, costs)
	if pick, best, _ := scanMin(costs, indexOf(d, s.Cfg[i]), s.Cost, 1, s.Rand); pick >= 0 {
		return d[pick], best
	}
	return s.Cfg[i], s.Cost
}

// indexOf returns the position of v in the domain d, or -1.
func indexOf(d []int, v int) int {
	for k, dv := range d {
		if dv == v {
			return k
		}
	}
	return -1
}

// selectAssignByCall is SelectAssign through one CostIfAssign call per
// value of d, returning at the first strict improvement under
// FirstBest.
func selectAssignByCall(s *State, i int, d []int) (v, cost int) {
	cur := s.Cfg[i]
	bestV := cur
	bestCost := s.Cost
	ties := 1
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

// SelectAssign implements AssignSelector for MetropolisMove: sample
// Tries random candidate values (excluding the current one), keep the
// cheapest, and apply the Metropolis acceptance rule. A singleton
// domain has no candidate to sample and reports a local minimum.
func (m *MetropolisMove) SelectAssign(s *State, i int) (v, cost int) {
	d := s.DomainOf(i)
	cur := s.Cfg[i]
	if len(d) < 2 {
		return cur, s.Cost
	}
	temp := m.Temperature
	if temp <= 0 {
		temp = 0.5
	}
	tries := m.Tries
	if tries <= 0 {
		tries = 8
	}
	curIdx := sort.SearchInts(d, cur)
	bestV, bestCost := cur, math.MaxInt
	for t := 0; t < tries; t++ {
		k := s.Rand.Intn(len(d) - 1)
		if k >= curIdx {
			k++
		}
		c := s.CostIfAssign(i, d[k])
		if c < bestCost {
			bestV, bestCost = d[k], c
		}
	}
	if bestCost <= s.Cost {
		return bestV, bestCost
	}
	if s.Rand.Float64() < math.Exp(-float64(bestCost-s.Cost)/temp) {
		return bestV, bestCost
	}
	return cur, s.Cost
}

// OnAssign implements AssignRestartPolicy for AdaptiveRestart: the
// assigned variable is frozen for FreezeSwap iterations, the FD
// counterpart of the post-swap double freeze.
func (p *AdaptiveRestart) OnAssign(s *State, i int) {
	if f := s.Opts.FreezeSwap; f > 0 {
		s.Marks[i] = s.Iter + int64(f)
		p.marked++
	}
}

// errConfigLength is the wrong-length error of ValidateConfig on both
// encodings.
func errConfigLength(got, want int) error {
	return fmt.Errorf("core: configuration has %d variables, problem has %d", got, want)
}
