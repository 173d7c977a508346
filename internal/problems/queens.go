package problems

import (
	"fmt"

	"repro/internal/core"
)

func init() {
	register(builder{
		name:        "queens",
		description: "N-Queens: place n queens on an n x n board with no two attacking (CSPLib prob054)",
		defaultSize: 100,
		paperSize:   100,
		maxSize:     1 << 16,
		build:       func(n int) (core.Problem, error) { return NewQueens(n) },
	})
}

// Queens encodes the N-Queens problem. The configuration is a
// permutation: cfg[r] is the column of the queen in row r, so rows and
// columns are all-different by construction and only diagonal conflicts
// contribute to the cost. The encoding maintains occupancy counters for
// the 2n-1 ascending and 2n-1 descending diagonals, giving O(1)
// CostIfSwap — the same structure as the C library's queens benchmark —
// plus a delta-maintained per-row error vector: intrusive membership
// lists record which rows sit on each diagonal, so ExecutedSwap
// refreshes only the rows on the (at most eight) diagonals a swap
// touches instead of invalidating anything.
type Queens struct {
	n    int
	up   []int // up[r+c] = queens on the ascending diagonal r+c
	down []int // down[r-c+n-1] = queens on the descending diagonal

	// errVec[r] = (up[r+c]-1) + (down[r-c+n-1]-1), the number of queens
	// attacking row r's queen — always current (MaintainedErrorVector).
	errVec []int
	// Intrusive doubly-linked membership lists: upHead[s] is the first
	// row on ascending diagonal s (-1 when empty), upNext/upPrev chain
	// the rows; likewise for descending diagonals. Each row is on
	// exactly one diagonal of each family, so one next/prev slot per
	// row suffices.
	upHead, downHead   []int32
	upNext, upPrev     []int32
	downNext, downPrev []int32
}

// NewQueens returns an n-queens instance. n must be at least 1.
func NewQueens(n int) (*Queens, error) {
	if n < 1 {
		return nil, fmt.Errorf("queens: size must be >= 1, got %d", n)
	}
	return &Queens{
		n:        n,
		up:       make([]int, 2*n-1),
		down:     make([]int, 2*n-1),
		errVec:   make([]int, n),
		upHead:   make([]int32, 2*n-1),
		downHead: make([]int32, 2*n-1),
		upNext:   make([]int32, n),
		upPrev:   make([]int32, n),
		downNext: make([]int32, n),
		downPrev: make([]int32, n),
	}, nil
}

var (
	_ core.SwapExecutor          = (*Queens)(nil)
	_ core.MaintainedErrorVector = (*Queens)(nil)
	_ core.MoveEvaluator         = (*Queens)(nil)
)

// Size implements core.Problem.
func (q *Queens) Size() int { return q.n }

// Cost implements core.Problem: the number of attacking pairs. It
// rebuilds the diagonal counters, membership lists and error vector
// from scratch.
func (q *Queens) Cost(cfg []int) int {
	for i := range q.up {
		q.up[i] = 0
		q.down[i] = 0
		q.upHead[i] = -1
		q.downHead[i] = -1
	}
	n1 := q.n - 1
	for r, c := range cfg {
		q.up[r+c]++
		q.down[r-c+n1]++
		q.linkUp(r, r+c)
		q.linkDown(r, r-c+n1)
	}
	cost := 0
	for i := range q.up {
		cost += pairs(q.up[i]) + pairs(q.down[i])
	}
	for r, c := range cfg {
		q.errVec[r] = (q.up[r+c] - 1) + (q.down[r-c+n1] - 1)
	}
	return cost
}

// linkUp pushes row r onto ascending diagonal s's membership list.
func (q *Queens) linkUp(r, s int) {
	h := q.upHead[s]
	q.upNext[r] = h
	q.upPrev[r] = -1
	if h >= 0 {
		q.upPrev[h] = int32(r)
	}
	q.upHead[s] = int32(r)
}

// unlinkUp removes row r from ascending diagonal s's membership list.
func (q *Queens) unlinkUp(r, s int) {
	p, nx := q.upPrev[r], q.upNext[r]
	if p >= 0 {
		q.upNext[p] = nx
	} else {
		q.upHead[s] = nx
	}
	if nx >= 0 {
		q.upPrev[nx] = p
	}
}

func (q *Queens) linkDown(r, s int) {
	h := q.downHead[s]
	q.downNext[r] = h
	q.downPrev[r] = -1
	if h >= 0 {
		q.downPrev[h] = int32(r)
	}
	q.downHead[s] = int32(r)
}

func (q *Queens) unlinkDown(r, s int) {
	p, nx := q.downPrev[r], q.downNext[r]
	if p >= 0 {
		q.downNext[p] = nx
	} else {
		q.downHead[s] = nx
	}
	if nx >= 0 {
		q.downPrev[nx] = p
	}
}

// pairs returns k choose 2: the number of conflicting pairs among k
// queens sharing a diagonal.
func pairs(k int) int { return k * (k - 1) / 2 }

// CostOnVariable implements core.Problem: the number of queens attacking
// the queen of row i.
func (q *Queens) CostOnVariable(cfg []int, i int) int {
	c := cfg[i]
	return (q.up[i+c] - 1) + (q.down[i-c+q.n-1] - 1)
}

// CostIfSwap implements core.Problem with an O(1) delta: remove the two
// queens from their diagonals, re-add them with swapped columns.
func (q *Queens) CostIfSwap(cfg []int, cost, i, j int) int {
	n1 := q.n - 1
	ci, cj := cfg[i], cfg[j]
	// Remove queen i and queen j from their four diagonals.
	cost -= q.up[i+ci] - 1
	q.up[i+ci]--
	cost -= q.down[i-ci+n1] - 1
	q.down[i-ci+n1]--
	cost -= q.up[j+cj] - 1
	q.up[j+cj]--
	cost -= q.down[j-cj+n1] - 1
	q.down[j-cj+n1]--
	// Re-add with swapped columns.
	cost += q.up[i+cj]
	q.up[i+cj]++
	cost += q.down[i-cj+n1]
	q.down[i-cj+n1]++
	cost += q.up[j+ci]
	q.up[j+ci]++
	cost += q.down[j-ci+n1]
	q.down[j-ci+n1]++
	// Roll back: CostIfSwap must not change observable state.
	q.up[i+cj]--
	q.down[i-cj+n1]--
	q.up[j+ci]--
	q.down[j-ci+n1]--
	q.up[i+ci]++
	q.down[i-ci+n1]++
	q.up[j+cj]++
	q.down[j-cj+n1]++
	return cost
}

// diagDelta accumulates the net queen-count change of up to four
// diagonals of one family; duplicate ids merge so shared diagonals
// cancel naturally.
type diagDelta struct {
	ids    [4]int
	deltas [4]int
	n      int
}

func (dd *diagDelta) add(id, delta int) {
	for k := 0; k < dd.n; k++ {
		if dd.ids[k] == id {
			dd.deltas[k] += delta
			return
		}
	}
	dd.ids[dd.n] = id
	dd.deltas[dd.n] = delta
	dd.n++
}

// ExecutedSwap implements core.SwapExecutor: cfg has already been
// swapped, so cfg[i] holds the old cfg[j] and vice versa. Counters,
// membership lists and the error vector are updated in place; only the
// rows sitting on a diagonal whose occupancy changed are refreshed.
func (q *Queens) ExecutedSwap(cfg []int, i, j int) {
	n1 := q.n - 1
	newCi, newCj := cfg[i], cfg[j] // post-swap columns
	oldUpI, oldDownI := i+newCj, i-newCj+n1
	oldUpJ, oldDownJ := j+newCi, j-newCi+n1
	newUpI, newDownI := i+newCi, i-newCi+n1
	newUpJ, newDownJ := j+newCj, j-newCj+n1

	// Remove the queens from their pre-swap diagonals...
	q.up[oldUpI]--
	q.down[oldDownI]--
	q.up[oldUpJ]--
	q.down[oldDownJ]--
	// ...and add them at their new positions.
	q.up[newUpI]++
	q.down[newDownI]++
	q.up[newUpJ]++
	q.down[newDownJ]++

	// Move the two rows between membership lists.
	q.unlinkUp(i, oldUpI)
	q.unlinkDown(i, oldDownI)
	q.unlinkUp(j, oldUpJ)
	q.unlinkDown(j, oldDownJ)
	q.linkUp(i, newUpI)
	q.linkDown(i, newDownI)
	q.linkUp(j, newUpJ)
	q.linkDown(j, newDownJ)

	// A row's error is a sum of its two diagonals' occupancies, so a
	// diagonal whose count moved by delta shifts every member row's
	// error by delta. The moved rows themselves are recomputed exactly
	// below, overwriting whatever the sweeps added.
	var du, dn diagDelta
	du.add(oldUpI, -1)
	du.add(oldUpJ, -1)
	du.add(newUpI, 1)
	du.add(newUpJ, 1)
	dn.add(oldDownI, -1)
	dn.add(oldDownJ, -1)
	dn.add(newDownI, 1)
	dn.add(newDownJ, 1)
	for k := 0; k < du.n; k++ {
		if d := du.deltas[k]; d != 0 {
			for r := q.upHead[du.ids[k]]; r >= 0; r = q.upNext[r] {
				q.errVec[r] += d
			}
		}
	}
	for k := 0; k < dn.n; k++ {
		if d := dn.deltas[k]; d != 0 {
			for r := q.downHead[dn.ids[k]]; r >= 0; r = q.downNext[r] {
				q.errVec[r] += d
			}
		}
	}
	q.errVec[i] = (q.up[newUpI] - 1) + (q.down[newDownI] - 1)
	q.errVec[j] = (q.up[newUpJ] - 1) + (q.down[newDownJ] - 1)
}

// LiveErrors implements core.MaintainedErrorVector: the vector is kept
// current by Cost and ExecutedSwap, so there is nothing to rebuild.
func (q *Queens) LiveErrors(cfg []int) []int { return q.errVec }

// ErrorsOnVariables implements core.ErrorVector.
func (q *Queens) ErrorsOnVariables(cfg []int, out []int) {
	copy(out, q.errVec)
}

// CostsIfSwapAll implements core.MoveEvaluator. Queen i's own diagonal
// contributions are removed once, outside the partner loop, leaving an
// O(1) body per candidate: remove queen j, re-add both queens with
// swapped columns, correcting for the one diagonal of each family the
// re-added queens can share.
func (q *Queens) CostsIfSwapAll(cfg []int, cost, i int, out []int) {
	n1 := q.n - 1
	up, down := q.up, q.down
	ci := cfg[i]
	upI, downI := i+ci, i-ci+n1
	base := cost - (up[upI] - 1) - (down[downI] - 1)
	up[upI]--
	down[downI]--
	for j, cj := range cfg {
		if j == i {
			out[i] = cost
			continue
		}
		c := base
		// Remove queen j (queen i is already out of the counters).
		c -= (up[j+cj] - 1) + (down[j-cj+n1] - 1)
		// Re-add queen i at column cj: it cannot share a diagonal with
		// the removed queen j (that would need i == j).
		c += up[i+cj] + down[i-cj+n1]
		// Re-add queen j at column ci: it sees queen i's new position
		// when both land on the same diagonal.
		u := up[j+ci]
		if j+ci == i+cj {
			u++
		}
		d := down[j-ci+n1]
		if j-ci == i-cj {
			d++
		}
		c += u + d
		out[j] = c
	}
	up[upI]++
	down[downI]++
}

// Tune implements core.Tuner with settings matching the C benchmark:
// queens needs no restarts and benefits from a large reset threshold.
func (q *Queens) Tune(o *core.Options) {
	o.FreezeLocMin = 2
	o.ResetLimit = q.n / 5
	if o.ResetLimit < 2 {
		o.ResetLimit = 2
	}
}

// Verify reports whether cfg is a valid n-queens solution, checked
// independently of the incremental machinery (used by tests and the
// solution validators in the harness).
func (q *Queens) Verify(cfg []int) bool {
	if len(cfg) != q.n {
		return false
	}
	seen := make(map[int]bool, q.n)
	for _, v := range cfg {
		if v < 0 || v >= q.n || seen[v] {
			return false
		}
		seen[v] = true
	}
	for i := 0; i < q.n; i++ {
		for j := i + 1; j < q.n; j++ {
			if abs(cfg[i]-cfg[j]) == j-i {
				return false
			}
		}
	}
	return true
}
