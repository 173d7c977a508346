package problems

import (
	"fmt"

	"repro/internal/core"
)

func init() {
	register(builder{
		name:        "costas",
		description: "Costas Array Problem: n marks, one per row/column, with all n(n-1)/2 displacement vectors distinct",
		defaultSize: 14,
		paperSize:   22,
		build:       func(n int) (core.Problem, error) { return NewCostas(n) },
	})
}

// Costas encodes the Costas Array Problem. The configuration is the
// permutation view of the array: cfg[i] is the row of the mark in
// column i. A Costas array requires that within every horizontal
// distance d (1 <= d < n) the differences cfg[i+d]-cfg[i] are pairwise
// distinct — equivalently, all displacement vectors between marks are
// distinct. The cost counts surplus equal differences per distance:
//
//	cost = Σ_d Σ_v max(0, occ_d(v) - 1)
//
// The encoding caches the (n-1) x (2n-1) difference-occurrence table;
// a swap touches the O(n) pairs involving the two swapped columns.
// This mirrors the error function of the Diaz et al. Costas study the
// paper cites as [4].
//
// The per-column error vector (number of duplicated displacement
// vectors involving a column) is delta-maintained: intrusive membership
// lists record which pairs occupy each (distance, difference) cell, so
// when a pair moves between cells only the columns whose duplicated-
// ness actually changed are touched — including the one *other* pair
// that flips between unique and duplicated when a cell's occupancy
// crosses the 1<->2 threshold, which the lists locate in O(1) instead
// of a half-matrix rescan.
type Costas struct {
	n int
	// w = 2n-1 is the row length of the two tables below: the pair of
	// columns lo < hi sits in cell (hi-lo-1)*w + cfg[hi]-cfg[lo]+n-1.
	// One flat slice each, so the row fill walks a table with one
	// multiply-free index a step instead of two slice headers.
	w   int
	occ []int16 // pairs per cell

	// errVec[i] = number of duplicated displacement vectors involving
	// column i. Always current (MaintainedErrorVector): Cost rebuilds
	// it and ExecutedSwap maintains it through addPair/removePair.
	errVec []int
	// Membership lists: head[cell] chains the lo indices of the pairs
	// currently occupying the cell; next/prev are indexed by
	// (hi-lo-1)*n + lo. -1 terminates.
	head       []int32
	next, prev []int32
}

// NewCostas returns a Costas instance of order n; n must be >= 1.
// (Orders 32 and 33 are famously unsolvable, but no small order the
// solver is used on lacks solutions.)
func NewCostas(n int) (*Costas, error) {
	if n < 1 {
		return nil, fmt.Errorf("costas: order must be >= 1, got %d", n)
	}
	w := 2*n - 1
	return &Costas{
		n:      n,
		w:      w,
		occ:    make([]int16, (n-1)*w),
		errVec: make([]int, n),
		head:   make([]int32, (n-1)*w),
		next:   make([]int32, (n-1)*n),
		prev:   make([]int32, (n-1)*n),
	}, nil
}

var (
	_ core.SwapExecutor          = (*Costas)(nil)
	_ core.MaintainedErrorVector = (*Costas)(nil)
	_ core.MoveEvaluator         = (*Costas)(nil)
)

// Name implements core.Namer.
func (c *Costas) Name() string { return "costas" }

// Size implements core.Problem.
func (c *Costas) Size() int { return c.n }

// cell returns the table index of the pair of columns x and q under cfg.
func (c *Costas) cell(cfg []int, x, q int) (cell, lo, hi int) {
	lo, hi = x, q
	if lo > hi {
		lo, hi = hi, lo
	}
	return (hi-lo-1)*c.w + cfg[hi] - cfg[lo] + c.n - 1, lo, hi
}

// link pushes pair (lo, hi) onto the cell's membership list.
func (c *Costas) link(cell, lo, hi int) {
	base := (hi - lo - 1) * c.n
	h := c.head[cell]
	c.next[base+lo] = h
	c.prev[base+lo] = -1
	if h >= 0 {
		c.prev[base+int(h)] = int32(lo)
	}
	c.head[cell] = int32(lo)
}

// unlink removes pair (lo, hi) from the cell's membership list.
func (c *Costas) unlink(cell, lo, hi int) {
	base := (hi - lo - 1) * c.n
	p, nx := c.prev[base+lo], c.next[base+lo]
	if p >= 0 {
		c.next[base+int(p)] = nx
	} else {
		c.head[cell] = nx
	}
	if nx >= 0 {
		c.prev[base+int(nx)] = p
	}
}

// addPair registers pair (lo, hi) in its cell, maintaining the
// occurrence count, the membership list and the error vector. It
// returns 1 when the pair lands in an occupied cell (one new surplus
// difference, the pair's cost contribution), 0 otherwise.
func (c *Costas) addPair(cell, lo, hi int) int {
	cnt := int(c.occ[cell])
	dup := 0
	if cnt >= 1 {
		c.errVec[lo]++
		c.errVec[hi]++
		dup = 1
		if cnt == 1 {
			// The cell's previously unique pair becomes duplicated.
			m := int(c.head[cell])
			c.errVec[m]++
			c.errVec[m+hi-lo]++
		}
	}
	c.occ[cell] = int16(cnt + 1)
	c.link(cell, lo, hi)
	return dup
}

// removePair is addPair's inverse.
func (c *Costas) removePair(cell, lo, hi int) {
	cnt := int(c.occ[cell])
	if cnt >= 2 {
		c.errVec[lo]--
		c.errVec[hi]--
	}
	c.unlink(cell, lo, hi)
	if cnt == 2 {
		// The remaining pair in the cell becomes unique again.
		m := int(c.head[cell])
		c.errVec[m]--
		c.errVec[m+hi-lo]--
	}
	c.occ[cell] = int16(cnt - 1)
}

// Cost implements core.Problem, rebuilding the difference table, the
// membership lists and the error vector.
func (c *Costas) Cost(cfg []int) int {
	clear(c.occ)
	for k := range c.head {
		c.head[k] = -1
	}
	clear(c.errVec)
	cost := 0
	n := c.n
	for lo := 0; lo < n; lo++ {
		for hi := lo + 1; hi < n; hi++ {
			cell, _, _ := c.cell(cfg, lo, hi)
			cost += c.addPair(cell, lo, hi)
		}
	}
	return cost
}

// CostOnVariable implements core.Problem: the number of duplicated
// displacement vectors involving column i.
func (c *Costas) CostOnVariable(cfg []int, i int) int {
	e := 0
	for q := range cfg {
		if q == i {
			continue
		}
		if cell, _, _ := c.cell(cfg, i, q); c.occ[cell] > 1 {
			e++
		}
	}
	return e
}

// The hypothetical-swap evaluators below work on the occurrence table
// only — lists and error vector untouched — and put back what they took
// before returning, so the delta-maintained structures never see them.
// Every pass treats the columns left of x and those right of it in two
// loops: the pair's row falls by one a step in the first and rises by
// one in the second, so each walks the table from a base that moves by
// w, with no ordering of the pair and no multiply inside. A pass that
// counts returns the cost change of exactly the cells it moved; the
// cost is a function of the table, so the order of the passes between
// two states of it does not matter.

// dropPairs removes every pair involving column x from the occurrence
// table, returning the cost decrease.
func (c *Costas) dropPairs(cfg []int, x int) int {
	occ, w := c.occ, c.w
	dec := 0
	b := (x-1)*w + cfg[x] + c.n - 1
	for _, vq := range cfg[:x] {
		if occ[b-vq] > 1 {
			dec++
		}
		occ[b-vq]--
		b -= w
	}
	b = c.n - 1 - cfg[x]
	for _, vq := range cfg[x+1:] {
		if occ[b+vq] > 1 {
			dec++
		}
		occ[b+vq]--
		b += w
	}
	return dec
}

// raisePairs re-adds every pair involving column x to the occurrence
// table, returning the cost increase.
func (c *Costas) raisePairs(cfg []int, x int) int {
	occ, w := c.occ, c.w
	inc := 0
	b := (x-1)*w + cfg[x] + c.n - 1
	for _, vq := range cfg[:x] {
		if occ[b-vq] > 0 {
			inc++
		}
		occ[b-vq]++
		b -= w
	}
	b = c.n - 1 - cfg[x]
	for _, vq := range cfg[x+1:] {
		if occ[b+vq] > 0 {
			inc++
		}
		occ[b+vq]++
		b += w
	}
	return inc
}

// shiftPairs is dropPairs (by = -1) or raisePairs (by = +1) as a
// rollback pass, whose cost change nobody reads.
func (c *Costas) shiftPairs(cfg []int, x int, by int16) {
	occ, w := c.occ, c.w
	b := (x-1)*w + cfg[x] + c.n - 1
	for _, vq := range cfg[:x] {
		occ[b-vq] += by
		b -= w
	}
	b = c.n - 1 - cfg[x]
	for _, vq := range cfg[x+1:] {
		occ[b+vq] += by
		b += w
	}
}

// retarget moves the pairs of column x, except the one with column
// skip, from the cells they occupy while x holds from to the cells for
// to, returning the cost change. cfg[x] is not read.
func (c *Costas) retarget(cfg []int, x, skip, from, to int) int {
	occ, w := c.occ, c.w
	delta := 0
	b := (x-1)*w + c.n - 1
	for q, vq := range cfg[:x] {
		if q != skip {
			k := b - vq
			if occ[k+from] > 1 {
				delta--
			}
			occ[k+from]--
			if occ[k+to] > 0 {
				delta++
			}
			occ[k+to]++
		}
		b -= w
	}
	b = c.n - 1
	for q, vq := range cfg[x+1:] {
		if q+x+1 != skip {
			k := b + vq
			if occ[k-from] > 1 {
				delta--
			}
			occ[k-from]--
			if occ[k-to] > 0 {
				delta++
			}
			occ[k-to]++
		}
		b += w
	}
	return delta
}

// retargetBack undoes retarget(cfg, x, skip, from, to), uncounted.
func (c *Costas) retargetBack(cfg []int, x, skip, from, to int) {
	occ, w := c.occ, c.w
	b := (x-1)*w + c.n - 1
	for q, vq := range cfg[:x] {
		if q != skip {
			occ[b-vq+from]++
			occ[b-vq+to]--
		}
		b -= w
	}
	b = c.n - 1
	for q, vq := range cfg[x+1:] {
		if q+x+1 != skip {
			occ[b+vq-from]++
			occ[b+vq-to]--
		}
		b += w
	}
}

// CostIfSwap implements core.Problem: one row of CostsIfSwapAll with a
// single partner. Instances are single-goroutine (see package comment),
// so the transient mutation of the cached table is invisible to
// callers.
func (c *Costas) CostIfSwap(cfg []int, cost, i, j int) int {
	cost -= c.dropPairs(cfg, i)
	cost += c.swapWithDropped(cfg, i, j)
	c.shiftPairs(cfg, i, +1)
	return cost
}

// swapWithDropped returns the cost change of swapping columns i and j
// from the state in which column i's pairs are out of the table, and
// leaves table and cfg in that state: column j's other pairs move to
// the cells of its new value, then column i's pairs (the one with j
// among them) are counted in under the swapped values, and both steps
// are undone.
func (c *Costas) swapWithDropped(cfg []int, i, j int) int {
	vi, vj := cfg[i], cfg[j]
	delta := c.retarget(cfg, j, i, vj, vi)
	cfg[i], cfg[j] = vj, vi
	delta += c.raisePairs(cfg, i)
	c.shiftPairs(cfg, i, -1)
	cfg[i], cfg[j] = vi, vj
	c.retargetBack(cfg, j, i, vj, vi)
	return delta
}

// CostsIfSwapAll implements core.MoveEvaluator. Column i's pairs are
// removed from the occurrence table once, outside the partner loop;
// each candidate j then pays only swapWithDropped, roughly halving the
// table traffic of n-1 independent CostIfSwap calls on top of the
// devirtualization.
func (c *Costas) CostsIfSwapAll(cfg []int, cost, i int, out []int) {
	base := cost - c.dropPairs(cfg, i)
	for j := range cfg {
		if j == i {
			out[i] = cost
			continue
		}
		out[j] = base + c.swapWithDropped(cfg, i, j)
	}
	c.shiftPairs(cfg, i, +1)
}

// ExecutedSwap implements core.SwapExecutor: cfg arrives already
// swapped; the affected pairs migrate between cells through
// removePair/addPair, which keep the error vector exact as a side
// effect.
func (c *Costas) ExecutedSwap(cfg []int, i, j int) {
	// Undo to the pre-swap view to remove the old pairs.
	cfg[i], cfg[j] = cfg[j], cfg[i]
	for q := range cfg {
		if q != i {
			c.removePair(c.cell(cfg, i, q))
		}
	}
	for q := range cfg {
		if q != i && q != j {
			c.removePair(c.cell(cfg, j, q))
		}
	}
	cfg[i], cfg[j] = cfg[j], cfg[i]
	for q := range cfg {
		if q != i {
			c.addPair(c.cell(cfg, i, q))
		}
	}
	for q := range cfg {
		if q != i && q != j {
			c.addPair(c.cell(cfg, j, q))
		}
	}
}

// LiveErrors implements core.MaintainedErrorVector: the vector is kept
// exact by Cost/ExecutedSwap, so frozen (no-move) iterations and moved
// iterations alike serve it with zero work.
func (c *Costas) LiveErrors(cfg []int) []int { return c.errVec }

// ErrorsOnVariables implements core.ErrorVector.
func (c *Costas) ErrorsOnVariables(cfg []int, out []int) {
	copy(out, c.errVec)
}

// Tune implements core.Tuner. Costas landscapes reward frequent resets
// of a small magnitude (the settings follow the C benchmark's spirit).
func (c *Costas) Tune(o *core.Options) {
	o.FreezeLocMin = 1
	o.ResetLimit = 1
	o.ResetFraction = 0.05
	o.MaxIterations = int64(c.n) * 10_000
}

// Verify independently checks that cfg is a Costas array of order n.
func (c *Costas) Verify(cfg []int) bool {
	if len(cfg) != c.n {
		return false
	}
	seen := make([]bool, c.n)
	for _, v := range cfg {
		if v < 0 || v >= c.n || seen[v] {
			return false
		}
		seen[v] = true
	}
	for d := 1; d < c.n; d++ {
		diffs := map[int]bool{}
		for i := 0; i+d < c.n; i++ {
			v := cfg[i+d] - cfg[i]
			if diffs[v] {
				return false
			}
			diffs[v] = true
		}
	}
	return true
}
