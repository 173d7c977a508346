// Package domain provides per-variable finite domains and a pre-search
// domain-reduction pass for the finite-domain (FD) encoding layer.
//
// The permutation benchmarks of the PPoPP 2012 study never need this:
// their configurations are permutations of [0, n) by construction. The
// general Adaptive Search formulation of the same research program
// (the Cell/BE and X10 lines) runs over arbitrary finite domains, and
// production CP solvers always reduce domains before search: values no
// assignment can use are removed up front, and a variable whose domain
// empties proves the model unsatisfiable before any walker spends an
// iteration.
//
// The package is deliberately small: a Domain is a sorted slice of
// distinct ints, a Propagator filters domains, and Fixpoint drives a
// set of propagators to quiescence. Propagators must be SOUND — they
// may only remove values that no satisfying assignment uses — so
// reduction never changes the solution set, and ErrUnsatisfiable is a
// proof, not a heuristic.
package domain

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// ErrUnsatisfiable reports that domain reduction proved the model has
// no solution (some variable's domain emptied, or a structural check
// like all-different capacity failed). Callers match it with errors.Is.
var ErrUnsatisfiable = errors.New("domain: model is unsatisfiable")

// Domain is the finite domain of one variable: a sorted slice of
// distinct ints. The zero value (nil) is the empty domain.
type Domain []int

// New builds a domain from arbitrary values, sorting and deduplicating.
func New(vals ...int) Domain {
	d := append(Domain(nil), vals...)
	sort.Ints(d)
	out := d[:0]
	for i, v := range d {
		if i == 0 || v != d[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// Range returns the domain {lo, ..., hi}; an inverted range is empty.
func Range(lo, hi int) Domain {
	if hi < lo {
		return nil
	}
	d := make(Domain, hi-lo+1)
	for i := range d {
		d[i] = lo + i
	}
	return d
}

// Index returns the position of v in d, or -1.
func (d Domain) Index(v int) int {
	i := sort.SearchInts(d, v)
	if i < len(d) && d[i] == v {
		return i
	}
	return -1
}

// Contains reports whether v is in d.
func (d Domain) Contains(v int) bool { return d.Index(v) >= 0 }

// Remove deletes v from d in place, returning the shrunk domain and
// whether v was present.
func (d Domain) Remove(v int) (Domain, bool) {
	i := d.Index(v)
	if i < 0 {
		return d, false
	}
	return append(d[:i], d[i+1:]...), true
}

// Clone returns an independent copy of d.
func (d Domain) Clone() Domain { return append(Domain(nil), d...) }

// Min returns the smallest value; d must be non-empty.
func (d Domain) Min() int { return d[0] }

// Max returns the largest value; d must be non-empty.
func (d Domain) Max() int { return d[len(d)-1] }

// Propagator filters domains. Reduce removes values from doms that no
// satisfying assignment can use, reports whether anything changed, and
// returns an error wrapping ErrUnsatisfiable when it proves the model
// has no solution. Implementations mutate doms entries in place
// (reassigning shrunk slices) and must be sound: a value used by some
// satisfying assignment is never removed.
type Propagator interface {
	Reduce(doms []Domain) (changed bool, err error)
}

// Fixpoint runs the propagators over doms until none changes anything
// (domains only shrink, so the loop terminates). It returns an error
// wrapping ErrUnsatisfiable if any domain is empty on entry or a
// propagator proves unsatisfiability; on success every domain is
// non-empty and reduced. A slice of one concrete propagator type
// ([]Distinct) runs without boxing each element into an interface.
func Fixpoint[P Propagator](doms []Domain, props []P) error {
	for i, d := range doms {
		if len(d) == 0 {
			return fmt.Errorf("variable %d has an empty domain: %w", i, ErrUnsatisfiable)
		}
	}
	for changed := true; changed; {
		changed = false
		for _, p := range props {
			ch, err := p.Reduce(doms)
			if err != nil {
				return err
			}
			if ch {
				changed = true
			}
		}
	}
	return nil
}

// Linear propagates bounds consistency over the linear equation
//
//	sum_k Coeffs[k] * x[Vars[k]] == Target.
//
// For each variable it computes the interval the other terms can reach
// from their current domain bounds and removes every value whose own
// contribution cannot complete the sum. This is a relaxation (it
// reasons with intervals, not exact sums), so it is sound by
// construction; it reports unsatisfiability only when a domain empties.
type Linear struct {
	Vars   []int
	Coeffs []int
	Target int
}

// Reduce implements Propagator.
func (l Linear) Reduce(doms []Domain) (bool, error) {
	if len(l.Vars) != len(l.Coeffs) {
		return false, fmt.Errorf("domain: Linear has %d vars but %d coefficients", len(l.Vars), len(l.Coeffs))
	}
	if len(l.Vars) == 0 {
		if l.Target != 0 {
			return false, fmt.Errorf("empty linear equation with target %d: %w", l.Target, ErrUnsatisfiable)
		}
		return false, nil
	}
	// Per-term contribution bounds under the current domains.
	los := make([]int, len(l.Vars))
	his := make([]int, len(l.Vars))
	sumLo, sumHi := 0, 0
	for k, vi := range l.Vars {
		d := doms[vi]
		if len(d) == 0 {
			return false, fmt.Errorf("variable %d has an empty domain: %w", vi, ErrUnsatisfiable)
		}
		c := l.Coeffs[k]
		lo, hi := c*d.Min(), c*d.Max()
		if c < 0 {
			lo, hi = hi, lo
		}
		los[k], his[k] = lo, hi
		sumLo += lo
		sumHi += hi
	}
	changed := false
	for k, vi := range l.Vars {
		othersLo := sumLo - los[k]
		othersHi := sumHi - his[k]
		c := l.Coeffs[k]
		d := doms[vi]
		out := d[:0]
		for _, v := range d {
			// Keep v iff the remaining terms can still reach Target.
			need := l.Target - c*v
			if need >= othersLo && need <= othersHi {
				out = append(out, v)
			}
		}
		if len(out) != len(d) {
			changed = true
			doms[vi] = out
			if len(out) == 0 {
				return true, fmt.Errorf("variable %d has an empty domain: %w", vi, ErrUnsatisfiable)
			}
		}
	}
	return changed, nil
}

// Distinct propagates an all-different constraint over Vars: every
// listed variable must take a distinct value. It applies singleton
// propagation (an assigned variable's value is removed from its peers)
// and the pigeonhole capacity check — more variables than distinct
// values across their domains proves unsatisfiability. Duplicate
// entries in Vars are ignored.
type Distinct struct {
	Vars []int
}

// Reduce implements Propagator. It allocates nothing unless the group's
// values span more than a machine word (see unionSize).
func (c Distinct) Reduce(doms []Domain) (bool, error) {
	lo, hi := math.MaxInt, math.MinInt
	for _, vi := range c.Vars {
		d := doms[vi]
		if len(d) == 0 {
			return false, fmt.Errorf("variable %d has an empty domain: %w", vi, ErrUnsatisfiable)
		}
		lo, hi = min(lo, d.Min()), max(hi, d.Max())
	}
	// Pigeonhole capacity: as many distinct values as distinct
	// variables must exist. len(Vars) bounds the variable count from
	// above, so duplicates are only counted out when that bound fails.
	if union := c.unionSize(doms, lo, hi); len(c.Vars) > union {
		if group := c.distinctVars(); group > union {
			return false, fmt.Errorf("all-different over %d variables with only %d values: %w", group, union, ErrUnsatisfiable)
		}
	}
	changed := false
	for k, vi := range c.Vars {
		// A repeated entry propagates at its first position only, so
		// registering a variable twice changes nothing.
		if len(doms[vi]) != 1 || slices.Contains(c.Vars[:k], vi) {
			continue
		}
		v := doms[vi][0]
		for _, vj := range c.Vars {
			if vj == vi {
				continue
			}
			d, removed := doms[vj].Remove(v)
			if !removed {
				continue
			}
			changed = true
			doms[vj] = d
			if len(d) == 0 {
				return true, fmt.Errorf("variable %d has an empty domain: %w", vj, ErrUnsatisfiable)
			}
		}
	}
	return changed, nil
}

// unionSize counts the distinct values across the group's (non-empty)
// domains, all of which lie in [lo, hi]: in one word when that interval
// has at most 64 values, by sorting a copy otherwise.
func (c Distinct) unionSize(doms []Domain, lo, hi int) int {
	if uint(hi-lo) < 64 {
		var seen uint64
		for _, vi := range c.Vars {
			for _, v := range doms[vi] {
				seen |= 1 << uint(v-lo)
			}
		}
		return bits.OnesCount64(seen)
	}
	var all []int
	for _, vi := range c.Vars {
		all = append(all, doms[vi]...)
	}
	return len(New(all...))
}

// distinctVars counts Vars without its repeated entries.
func (c Distinct) distinctVars() int {
	n := 0
	for k, vi := range c.Vars {
		if !slices.Contains(c.Vars[:k], vi) {
			n++
		}
	}
	return n
}
