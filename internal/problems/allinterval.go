package problems

import (
	"fmt"

	"repro/internal/core"
)

func init() {
	register(builder{
		name:        "all-interval",
		description: "All-Interval Series: order 0..n-1 so the n-1 adjacent differences are all distinct (CSPLib prob007)",
		defaultSize: 24,
		paperSize:   700,
		maxSize:     1 << 16,
		build:       func(n int) (core.Problem, error) { return NewAllInterval(n) },
	})
}

// AllInterval encodes CSPLib prob007: find a permutation s of {0..n-1}
// such that the absolute differences |s[i+1]-s[i]| form a permutation of
// {1..n-1} (an "all-interval series" in musical composition). Following
// the C benchmark, the cost weights each missing difference by its
// magnitude: cost = Σ_{d: occ(d)=0} d, which is 0 exactly when all n-1
// differences are distinct and steers the search toward realizing the
// scarce large distances first (an unweighted surplus count leaves the
// engine directionless — see DESIGN.md §6). The encoding caches the
// occurrence table; a swap touches at most four adjacent differences,
// giving O(1) deltas.
type AllInterval struct {
	n   int
	occ []int // occ[d] = number of adjacent pairs with difference d

	// errVec[i] = number of variable i's adjacent differences that are
	// duplicated — always current (LiveErrors). A swap can
	// flip the duplicated-ness of edges away from the swapped positions
	// (when a difference's occurrence count crosses the 1<->2
	// threshold), so intrusive membership lists track which edges
	// realize each difference: head[d] chains the edges with difference
	// d through next/prev (indexed by edge, -1 terminates), and the
	// edge that flips is found in O(1) instead of an O(n) edge rescan.
	errVec     []int
	head       []int32
	next, prev []int32
}

// NewAllInterval returns an instance with n variables; n must be >= 2.
func NewAllInterval(n int) (*AllInterval, error) {
	if n < 2 {
		return nil, fmt.Errorf("all-interval: size must be >= 2, got %d", n)
	}
	return &AllInterval{
		n:      n,
		occ:    make([]int, n),
		errVec: make([]int, n),
		head:   make([]int32, n),
		next:   make([]int32, n),
		prev:   make([]int32, n),
	}, nil
}

var _ core.PermProblem = (*AllInterval)(nil)

// link pushes edge e onto difference d's membership list.
func (a *AllInterval) link(d, e int) {
	h := a.head[d]
	a.next[e] = h
	a.prev[e] = -1
	if h >= 0 {
		a.prev[h] = int32(e)
	}
	a.head[d] = int32(e)
}

// unlink removes edge e from difference d's membership list.
func (a *AllInterval) unlink(d, e int) {
	p, nx := a.prev[e], a.next[e]
	if p >= 0 {
		a.next[p] = nx
	} else {
		a.head[d] = nx
	}
	if nx >= 0 {
		a.prev[nx] = p
	}
}

// addEdge registers edge e (the adjacent pair (e, e+1)) under
// difference d, maintaining the occurrence count, the membership list
// and the error vector.
func (a *AllInterval) addEdge(d, e int) {
	cnt := a.occ[d]
	if cnt >= 1 {
		a.errVec[e]++
		a.errVec[e+1]++
		if cnt == 1 {
			// The difference's previously unique edge becomes duplicated.
			m := a.head[d]
			a.errVec[m]++
			a.errVec[m+1]++
		}
	}
	a.occ[d] = cnt + 1
	a.link(d, e)
}

// removeEdge is addEdge's inverse.
func (a *AllInterval) removeEdge(d, e int) {
	cnt := a.occ[d]
	if cnt >= 2 {
		a.errVec[e]--
		a.errVec[e+1]--
	}
	a.unlink(d, e)
	if cnt == 2 {
		// The remaining edge with this difference becomes unique again.
		m := a.head[d]
		a.errVec[m]--
		a.errVec[m+1]--
	}
	a.occ[d] = cnt - 1
}

// Size implements core.Problem.
func (a *AllInterval) Size() int { return a.n }

// Cost implements core.Problem, rebuilding the occurrence table, the
// membership lists and the error vector.
func (a *AllInterval) Cost(cfg []int) int {
	for d := range a.occ {
		a.occ[d] = 0
		a.head[d] = -1
		a.errVec[d] = 0
	}
	for e := 0; e+1 < len(cfg); e++ {
		a.addEdge(abs(cfg[e+1]-cfg[e]), e)
	}
	cost := 0
	for d := 1; d < a.n; d++ {
		if a.occ[d] == 0 {
			cost += d
		}
	}
	return cost
}

// CostOnVariable implements core.Problem: a variable's error is the
// number of its adjacent differences that are duplicated.
func (a *AllInterval) CostOnVariable(cfg []int, i int) int {
	e := 0
	if i > 0 {
		if a.occ[abs(cfg[i]-cfg[i-1])] > 1 {
			e++
		}
	}
	if i+1 < len(cfg) {
		if a.occ[abs(cfg[i+1]-cfg[i])] > 1 {
			e++
		}
	}
	return e
}

// edgesOf collects the distinct difference-edge indices adjacent to
// positions i and j into buf (an edge e is the pair (e, e+1)). Returns
// the number of edges written.
func (a *AllInterval) edgesOf(i, j int, buf *[4]int) int {
	n := 0
	add := func(e int) {
		if e < 0 || e+1 >= a.n {
			return
		}
		for k := 0; k < n; k++ {
			if buf[k] == e {
				return
			}
		}
		buf[n] = e
		n++
	}
	add(i - 1)
	add(i)
	add(j - 1)
	add(j)
	return n
}

// CostIfSwap implements core.Problem. It temporarily mutates the cached
// occurrence table and rolls it back before returning; instances are
// never shared across goroutines (see the package comment), so the
// transient mutation is invisible to callers.
func (a *AllInterval) CostIfSwap(cfg []int, cost, i, j int) int {
	var edges [4]int
	ne := a.edgesOf(i, j, &edges)
	var olds, news [4]int
	// Remove the old differences of all affected edges: a difference
	// whose count drops to zero adds its magnitude to the cost.
	for k := 0; k < ne; k++ {
		e := edges[k]
		d := abs(cfg[e+1] - cfg[e])
		olds[k] = d
		a.occ[d]--
		if a.occ[d] == 0 {
			cost += d
		}
	}
	cfg[i], cfg[j] = cfg[j], cfg[i]
	// Add the new differences: realizing a missing difference removes
	// its magnitude from the cost.
	for k := 0; k < ne; k++ {
		e := edges[k]
		d := abs(cfg[e+1] - cfg[e])
		news[k] = d
		if a.occ[d] == 0 {
			cost -= d
		}
		a.occ[d]++
	}
	cfg[i], cfg[j] = cfg[j], cfg[i]
	// Roll back the occurrence table.
	for k := 0; k < ne; k++ {
		a.occ[news[k]]--
		a.occ[olds[k]]++
	}
	return cost
}

// ExecutedSwap implements core.PermProblem: cfg is already swapped;
// the affected edges migrate between difference lists through
// removeEdge/addEdge, which keep the error vector exact as a side
// effect. The pre-swap configuration is recovered by swapping back
// temporarily.
func (a *AllInterval) ExecutedSwap(cfg []int, i, j int) {
	var edges [4]int
	ne := a.edgesOf(i, j, &edges)
	cfg[i], cfg[j] = cfg[j], cfg[i] // back to pre-swap
	for k := 0; k < ne; k++ {
		e := edges[k]
		a.removeEdge(abs(cfg[e+1]-cfg[e]), e)
	}
	cfg[i], cfg[j] = cfg[j], cfg[i] // forward again
	for k := 0; k < ne; k++ {
		e := edges[k]
		a.addEdge(abs(cfg[e+1]-cfg[e]), e)
	}
}

// CostsIfSwapAll implements core.PermProblem. The cost is a function
// of the occurrence table alone, so the order in which a swap's old
// differences leave it and its new ones enter cannot change the result:
// variable i's own differences are taken out once for the whole row and
// put back at the end, and an interior partner that is not i's
// neighbour then costs two removals, four additions and six restores in
// straight-line code. The table is borrowed, never left changed; cfg is
// only read.
func (a *AllInterval) CostsIfSwapAll(cfg []int, cost, i int, out []int) {
	n, occ := a.n, a.occ
	last := n - 1
	vi := cfg[i]
	base := cost
	if i > 0 {
		base += take(occ, abs(vi-cfg[i-1]))
	}
	if i < last {
		base += take(occ, abs(cfg[i+1]-vi))
	}
	if i == 0 || i == last {
		// A border variable has one difference only: every partner
		// goes through the general entry.
		for j := range cfg {
			if j != i {
				out[j] = a.rowEntry(cfg, base, i, j)
			}
		}
	} else {
		// The borders and i's two neighbours (which share an edge with
		// i) are the general entries; everything between is interior.
		out[0] = a.rowEntry(cfg, base, i, 0)
		out[last] = a.rowEntry(cfg, base, i, last)
		out[i-1] = a.rowEntry(cfg, base, i, i-1)
		out[i+1] = a.rowEntry(cfg, base, i, i+1)
		left, right := cfg[i-1], cfg[i+1]
		for j := 1; j < last; j++ {
			if uint(j-i+1) <= 2 {
				continue // i-1, i, i+1
			}
			vj, l, r := cfg[j], cfg[j-1], cfg[j+1]
			o1, o2 := abs(vj-l), abs(r-vj)
			n1, n2, n3, n4 := abs(vj-left), abs(right-vj), abs(vi-l), abs(r-vi)
			c := base + take(occ, o1) + take(occ, o2)
			c -= put(occ, n1) + put(occ, n2) + put(occ, n3) + put(occ, n4)
			occ[n1]--
			occ[n2]--
			occ[n3]--
			occ[n4]--
			occ[o1]++
			occ[o2]++
			out[j] = c
		}
	}
	out[i] = cost
	if i > 0 {
		occ[abs(vi-cfg[i-1])]++
	}
	if i < last {
		occ[abs(cfg[i+1]-vi)]++
	}
}

// take removes one occurrence of difference d and returns what that
// adds to the cost: d if it was the last one.
func take(occ []int, d int) int {
	occ[d]--
	if occ[d] == 0 {
		return d
	}
	return 0
}

// put adds one occurrence of difference d and returns what that takes
// off the cost: d if it was missing.
func put(occ []int, d int) int {
	occ[d]++
	if occ[d] == 1 {
		return d
	}
	return 0
}

// rowEntry is CostsIfSwapAll's general entry for one partner j, with
// variable i's differences already out of the table and c the cost in
// that state: j may be a border or i's neighbour (the shared edge keeps
// its difference and is only put back).
func (a *AllInterval) rowEntry(cfg []int, c, i, j int) int {
	occ := a.occ
	last := a.n - 1
	vi, vj := cfg[i], cfg[j]
	var olds, news [4]int
	no, nn := 0, 0
	// Partner j's own edges, but for the one it shares with i.
	if j > 0 && j-1 != i {
		olds[no], news[nn] = abs(vj-cfg[j-1]), abs(vi-cfg[j-1])
		no, nn = no+1, nn+1
	}
	if j < last && j+1 != i {
		olds[no], news[nn] = abs(cfg[j+1]-vj), abs(cfg[j+1]-vi)
		no, nn = no+1, nn+1
	}
	// Variable i's edges under the swapped values: a neighbour that is
	// j itself holds vi afterwards.
	if i > 0 {
		l := cfg[i-1]
		if i-1 == j {
			l = vi
		}
		news[nn] = abs(vj - l)
		nn++
	}
	if i < last {
		r := cfg[i+1]
		if i+1 == j {
			r = vi
		}
		news[nn] = abs(r - vj)
		nn++
	}
	for _, d := range olds[:no] {
		c += take(occ, d)
	}
	for _, d := range news[:nn] {
		c -= put(occ, d)
	}
	for _, d := range news[:nn] {
		occ[d]--
	}
	for _, d := range olds[:no] {
		occ[d]++
	}
	return c
}

// LiveErrors implements core.Problem: the vector is kept
// exact by Cost/ExecutedSwap, so there is nothing to rebuild.
func (a *AllInterval) LiveErrors(cfg []int) []int { return a.errVec }

// Tune implements core.Tuner with the C benchmark's character: a strong
// probabilistic plateau escape works well on this very plateau-heavy
// landscape.
func (a *AllInterval) Tune(o *core.Options) {
	o.ProbSelectLocMin = 0.66
	o.FreezeLocMin = 1
	o.ResetLimit = a.n / 6
	if o.ResetLimit < 2 {
		o.ResetLimit = 2
	}
	o.ResetFraction = 0.25
	o.MaxIterations = int64(a.n) * int64(a.n) * 20
}

// Verify independently checks cfg: a permutation whose n-1 adjacent
// absolute differences are pairwise distinct.
func (a *AllInterval) Verify(cfg []int) bool {
	if len(cfg) != a.n {
		return false
	}
	seenV := make([]bool, a.n)
	for _, v := range cfg {
		if v < 0 || v >= a.n || seenV[v] {
			return false
		}
		seenV[v] = true
	}
	seenD := make([]bool, a.n)
	for i := 0; i+1 < a.n; i++ {
		d := abs(cfg[i+1] - cfg[i])
		if d == 0 || seenD[d] {
			return false
		}
		seenD[d] = true
	}
	return true
}
