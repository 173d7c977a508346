package core

import (
	"fmt"
	"sort"

	"repro/internal/domain"
)

// This file defines the finite-domain (FD) encoding layer: the
// contract a non-permutation problem implements, the State view the FD
// kernels use, and min-conflict assign selection (SelectAssign). Both
// encodings run the one engine loop; an FD problem runs it over assign
// moves (fdengine.go) instead of swaps, with a pre-search
// domain-reduction pass.

// FDProblem is the finite-domain encoding's contract: variable i takes
// values from Domain(i) instead of the permutation invariant, and the
// engine's move is an assignment cfg[i] = v rather than a swap.
// Implementing it switches Solve onto assign moves. The embedded
// Problem is unchanged, CostIfSwap included, because harnesses and
// exchange probes still evaluate swap perturbations on any encoding.
//
// Contract, on top of Problem's:
//   - Domain returns the current domain of variable i: sorted ascending,
//     distinct, non-empty (after reduction), owned by the problem.
//     Callers must not mutate or retain it. Domains never grow during a
//     Solve call.
//   - CostIfAssign returns the global cost Cost would report after
//     setting cfg[i] = v, given the current cost; v == cfg[i] must
//     return cost unchanged. Like CostIfSwap it must not mutate
//     observable state.
//   - CostsIfAssignAll fills out[k], for every k, with exactly the value
//     CostIfAssign(cfg, cost, i, Domain(i)[k]) would return (so the
//     entry of the current value holds cost); len(out) ==
//     len(Domain(i)). It must not change observable state.
//   - ExecutedAssign is invoked after the engine has written cfg[i]
//     (old is the previous value), so the problem updates its caches,
//     the live error vector among them, in O(delta).
type FDProblem interface {
	Problem
	Domain(i int) []int
	CostIfAssign(cfg []int, cost, i, v int) int
	CostsIfAssignAll(cfg []int, cost, i int, out []int)
	ExecutedAssign(cfg []int, i, old int)
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

// bindFD wires the FD view of p into the state, with an assign row as
// long as the longest domain; no-op unless p is an FDProblem.
func (s *State) bindFD(p Problem, n int) {
	fd, ok := p.(FDProblem)
	if !ok {
		return
	}
	s.fd = fd
	maxd := 0
	for i := 0; i < n; i++ {
		maxd = max(maxd, len(fd.Domain(i)))
	}
	s.assignBuf = make([]int, maxd)
}

// SelectAssign is SelectMove on the FD encoding: it scans variable i's
// domain and returns the value v minimizing the global cost, and that
// cost, ties broken uniformly, with the current value seeding the pool
// so sideways moves compete on equal footing and strictly-worse values
// are never taken; v == s.Cfg[i] on return signals a local minimum.
// The CostsIfAssignAll row is scanned by scanMin. FirstBest scans per
// call instead (selectAssignByCall, same order, acceptance rules and
// draws), for the reason SelectMove does: its point is to stop at the
// first improvement.
func (s *State) SelectAssign(i int) (v, cost int) {
	d := s.fd.Domain(i)
	if s.Opts.FirstBest {
		return selectAssignByCall(s, i, d)
	}
	costs := s.assignBuf[:len(d)]
	s.fd.CostsIfAssignAll(s.Cfg, s.Cost, i, costs)
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

// selectAssignByCall is SelectAssign under FirstBest: one CostIfAssign
// call per value of d, returning at the first strict improvement.
func selectAssignByCall(s *State, i int, d []int) (v, cost int) {
	cur := s.Cfg[i]
	bestV := cur
	bestCost := s.Cost
	ties := 1
	for _, cand := range d {
		if cand == cur {
			continue
		}
		c := s.fd.CostIfAssign(s.Cfg, s.Cost, i, cand)
		switch {
		case c < bestCost:
			return cand, c
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
