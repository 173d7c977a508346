package core

import (
	"fmt"
	"sort"

	"repro/internal/domain"
)

// This file defines the finite-domain (FD) encoding layer: the
// interfaces a non-permutation problem implements, the State accessors
// the FD kernels use, and min-conflict assign selection (SelectAssign).
// Both encodings run the one engine loop; an FD problem runs it over
// assign moves (fdengine.go) instead of swaps, with batched assign
// evaluation instead of CostsIfSwapAll and a pre-search
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
// clones of a reduced model (see Cloner).
type DomainReducer interface {
	ReduceDomains() error
}

// Cloner is implemented by problems whose construction is mostly an
// immutable model (ids, adjacency, reduced domains) that instances can
// share. Clone returns an unused instance — exactly what a fresh
// construction followed by the reductions the receiver has had would
// be, so search traces cannot tell them apart — that shares the model
// and owns its mutable search state. It must read nothing a search
// writes. problems.Resolve keeps one reduced instance of a spec for
// the life of the process, searches on it never, and clones it
// concurrently from every walker of every job of that spec.
// ModelBytes is the heap the receiver holds — the model its clones
// share and its own search state — and is what that cache bounds.
// Optional: Resolve builds fresh instances of an encoding without it.
type Cloner interface {
	Clone() Problem
	ModelBytes() int64
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

// SelectAssign is SelectMove on the FD encoding: it scans variable i's
// domain and returns the value v minimizing the global cost, and that
// cost, ties broken uniformly, with the current value seeding the pool
// so sideways moves compete on equal footing and strictly-worse values
// are never taken; v == s.Cfg[i] on return signals a local minimum.
// The batched AssignEvaluator row is scanned by scanMin;
// selectAssignByCall scans in the same order with the same acceptance
// rules and RNG consumption, so FD traces do not depend on which path
// served the costs. FirstBest keeps the per-call path for the same
// reason SelectMove does: its point is to stop at the first improvement.
func (s *State) SelectAssign(i int) (v, cost int) {
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

// errConfigLength is the wrong-length error of ValidateConfig on both
// encodings.
func errConfigLength(got, want int) error {
	return fmt.Errorf("core: configuration has %d variables, problem has %d", got, want)
}
