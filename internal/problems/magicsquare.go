package problems

import (
	"fmt"

	"repro/internal/core"
)

func init() {
	register(builder{
		name:        "magic-square",
		description: "Magic Square: fill an n x n grid with 1..n^2 so rows, columns and diagonals share one sum (CSPLib prob019)",
		defaultSize: 10,
		paperSize:   100,
		maxSize:     1024,
		build:       func(n int) (core.Problem, error) { return NewMagicSquare(n) },
	})
}

// MagicSquare encodes CSPLib prob019. The configuration is a permutation
// of [0, n*n); cell k of the row-major grid holds value cfg[k]+1. The
// constraints require every row, every column and both main diagonals to
// sum to the magic constant M = n(n^2+1)/2. The cost is the sum of the
// absolute deviations of all 2n+2 line sums, and the encoding caches the
// line sums for O(1) swap deltas, as the C benchmark does.
type MagicSquare struct {
	side int // n: the side of the grid; Size() is n*n
	m    int // magic constant
	row  []int
	col  []int
	d1   int // main diagonal (r == c)
	d2   int // anti-diagonal (r + c == n-1)

	// errVec caches the per-cell projected errors (LiveErrors).
	// ExecutedSwap moves only the cells on lines whose sum
	// changed — O(side) work instead of the O(side^2) per-iteration
	// scan — and Cost invalidates it for a lazy rebuild.
	errVec   []int
	errValid bool
}

// NewMagicSquare returns an instance with side n (n*n variables).
// n must be at least 1; n = 2 has no solution and is rejected.
func NewMagicSquare(n int) (*MagicSquare, error) {
	if n < 1 {
		return nil, fmt.Errorf("magic-square: side must be >= 1, got %d", n)
	}
	if n == 2 {
		return nil, fmt.Errorf("magic-square: no 2x2 magic square exists")
	}
	return &MagicSquare{
		side:   n,
		m:      n * (n*n + 1) / 2,
		row:    make([]int, n),
		col:    make([]int, n),
		errVec: make([]int, n*n),
	}, nil
}

var _ core.PermProblem = (*MagicSquare)(nil)

// Side returns the grid side n.
func (ms *MagicSquare) Side() int { return ms.side }

// Size implements core.Problem: the number of cells, n*n.
func (ms *MagicSquare) Size() int { return ms.side * ms.side }

// Cost implements core.Problem, rebuilding all line sums.
func (ms *MagicSquare) Cost(cfg []int) int {
	n := ms.side
	for i := 0; i < n; i++ {
		ms.row[i] = 0
		ms.col[i] = 0
	}
	ms.d1, ms.d2 = 0, 0
	for k, raw := range cfg {
		v := raw + 1
		r, c := k/n, k%n
		ms.row[r] += v
		ms.col[c] += v
		if r == c {
			ms.d1 += v
		}
		if r+c == n-1 {
			ms.d2 += v
		}
	}
	cost := abs(ms.d1-ms.m) + abs(ms.d2-ms.m)
	for i := 0; i < n; i++ {
		cost += abs(ms.row[i]-ms.m) + abs(ms.col[i]-ms.m)
	}
	ms.errValid = false
	return cost
}

// CostOnVariable implements core.Problem: the error projected on cell i
// is the deviation of the lines through it.
func (ms *MagicSquare) CostOnVariable(cfg []int, i int) int {
	n := ms.side
	r, c := i/n, i%n
	e := abs(ms.row[r]-ms.m) + abs(ms.col[c]-ms.m)
	if r == c {
		e += abs(ms.d1 - ms.m)
	}
	if r+c == n-1 {
		e += abs(ms.d2 - ms.m)
	}
	return e
}

// CostIfSwap implements core.Problem with an O(1) delta over the at most
// eight affected line incidences; a line both cells lie on keeps its sum.
func (ms *MagicSquare) CostIfSwap(cfg []int, cost, i, j int) int {
	n, m := ms.side, ms.m
	dv := cfg[j] - cfg[i] // value change at cell i; cell j gets -dv
	r1, c1, r2, c2 := i/n, i%n, j/n, j%n
	if r1 != r2 {
		cost += abs(ms.row[r1]+dv-m) - abs(ms.row[r1]-m) + abs(ms.row[r2]-dv-m) - abs(ms.row[r2]-m)
	}
	if c1 != c2 {
		cost += abs(ms.col[c1]+dv-m) - abs(ms.col[c1]-m) + abs(ms.col[c2]-dv-m) - abs(ms.col[c2]-m)
	}
	dd1, dd2 := ms.diagGains(r1, c1, r2, c2, dv)
	cost += abs(ms.d1+dd1-m) - abs(ms.d1-m) + abs(ms.d2+dd2-m) - abs(ms.d2-m)
	return cost
}

// diagGains returns what the two diagonals gain when cell (r1, c1)
// gains dv and cell (r2, c2) loses it: nothing where both or neither of
// the cells lie on the line.
func (ms *MagicSquare) diagGains(r1, c1, r2, c2, dv int) (dd1, dd2 int) {
	if r1 == c1 {
		dd1 += dv
	}
	if r2 == c2 {
		dd1 -= dv
	}
	if r1+c1 == ms.side-1 {
		dd2 += dv
	}
	if r2+c2 == ms.side-1 {
		dd2 -= dv
	}
	return dd1, dd2
}

// ExecutedSwap implements core.PermProblem: cfg is already swapped, so
// cell i gained cfg[i]-cfg[j] and cell j lost as much. A line through
// both cells keeps its sum.
func (ms *MagicSquare) ExecutedSwap(cfg []int, i, j int) {
	n := ms.side
	dv := cfg[i] - cfg[j]
	r1, c1, r2, c2 := i/n, i%n, j/n, j%n
	if r1 != r2 {
		ms.shiftLine(&ms.row[r1], dv, r1*n, 1)
		ms.shiftLine(&ms.row[r2], -dv, r2*n, 1)
	}
	if c1 != c2 {
		ms.shiftLine(&ms.col[c1], dv, c1, n)
		ms.shiftLine(&ms.col[c2], -dv, c2, n)
	}
	dd1, dd2 := ms.diagGains(r1, c1, r2, c2, dv)
	if dd1 != 0 {
		ms.shiftLine(&ms.d1, dd1, 0, n+1)
	}
	if dd2 != 0 {
		ms.shiftLine(&ms.d2, dd2, n-1, n-1)
	}
}

// shiftLine adds d to a line's sum. A cell's projected error is the sum
// of its lines' deviations, so the n cells of the line (first,
// first+stride, ...) each move by the change in this line's deviation.
func (ms *MagicSquare) shiftLine(sum *int, d, first, stride int) {
	e := *sum - ms.m
	*sum += d
	if !ms.errValid {
		return
	}
	delta := abs(e+d) - abs(e)
	for k, t := first, 0; t < ms.side; k, t = k+stride, t+1 {
		ms.errVec[k] += delta
	}
}

// refreshCellError recomputes errVec[k] from the cached line sums; the
// value matches CostOnVariable exactly (it depends only on the lines
// through the cell, not on the cell's value).
func (ms *MagicSquare) refreshCellError(k int) {
	n := ms.side
	r, c := k/n, k%n
	e := abs(ms.row[r]-ms.m) + abs(ms.col[c]-ms.m)
	if r == c {
		e += abs(ms.d1 - ms.m)
	}
	if r+c == n-1 {
		e += abs(ms.d2 - ms.m)
	}
	ms.errVec[k] = e
}

// LiveErrors implements core.Problem: ExecutedSwap keeps
// the vector current by shifting only the cells on changed lines;
// after a full Cost recompute (run start, partial reset, teleport) the
// vector is rebuilt here once, lazily.
func (ms *MagicSquare) LiveErrors(cfg []int) []int {
	if !ms.errValid {
		for k := range ms.errVec {
			ms.refreshCellError(k)
		}
		ms.errValid = true
	}
	return ms.errVec
}

// CostsIfSwapAll implements core.PermProblem. The partners are walked
// row by row, so no candidate pays a division: cell i's deviations are
// resolved once a call, a partner row's once a row, and a candidate is
// then a handful of absolute values. The main pass prices every partner
// as if it lay on no diagonal; the at most 2n that do are repaired
// afterwards. Exact for any cfg, permutation or not.
func (ms *MagicSquare) CostsIfSwapAll(cfg []int, cost, i int, out []int) {
	n, m := ms.side, ms.m
	r1, c1 := i/n, i%n
	vi := cfg[i]
	eRow, eCol, e1, e2 := ms.row[r1]-m, ms.col[c1]-m, ms.d1-m, ms.d2-m
	onD1, onD2 := r1 == c1, r1+c1 == n-1
	// What leaves the cost whichever the partner: cell i's own column
	// and diagonal deviations (its row's too, outside row r1).
	base := cost - abs(eCol)
	if onD1 {
		base -= abs(e1)
	}
	if onD2 {
		base -= abs(e2)
	}
	cols := ms.col
	for r2 := 0; r2 < n; r2++ {
		vals, outRow := cfg[r2*n:r2*n+n], out[r2*n:r2*n+n]
		if r2 == r1 {
			// One row: its sum does not move.
			for c2, vj := range vals {
				dv := vj - vi
				e := cols[c2] - m
				c := base + abs(eCol+dv) + abs(e-dv) - abs(e)
				if onD1 {
					c += abs(e1 + dv)
				}
				if onD2 {
					c += abs(e2 + dv)
				}
				outRow[c2] = c
			}
			continue
		}
		eRow2 := ms.row[r2] - m
		rowBase := base - abs(eRow) - abs(eRow2)
		for c2, vj := range vals {
			dv := vj - vi // value change at cell i; cell j gets -dv
			c := rowBase + abs(eRow+dv) + abs(eRow2-dv)
			if c2 != c1 {
				e := cols[c2] - m
				c += abs(eCol+dv) + abs(e-dv) - abs(e)
			} else {
				c += abs(eCol) // one column
			}
			if onD1 {
				c += abs(e1 + dv)
			}
			if onD2 {
				c += abs(e2 + dv)
			}
			outRow[c2] = c
		}
	}
	// Partners on a diagonal: where cell i shares the line its sum does
	// not move after all, elsewhere the partner's loss moves it.
	for r, k1, k2 := 0, 0, n-1; r < n; r, k1, k2 = r+1, k1+n+1, k2+n-1 {
		dv := cfg[k1] - vi
		if onD1 {
			out[k1] += abs(e1) - abs(e1+dv)
		} else {
			out[k1] += abs(e1-dv) - abs(e1)
		}
		dv = cfg[k2] - vi
		if onD2 {
			out[k2] += abs(e2) - abs(e2+dv)
		} else {
			out[k2] += abs(e2-dv) - abs(e2)
		}
	}
	out[i] = cost
}

// Tune implements core.Tuner following the C benchmark's settings: magic
// squares profit from the probabilistic local-minimum escape and a reset
// threshold scaling with the side.
func (ms *MagicSquare) Tune(o *core.Options) {
	n := ms.side
	o.ProbSelectLocMin = 0.06
	o.FreezeLocMin = 1
	o.ResetLimit = n*n/20 + 2
	o.ResetFraction = 0.05
	o.MaxIterations = int64(n) * int64(n) * 1000
}

// Verify independently checks that cfg solves the instance.
func (ms *MagicSquare) Verify(cfg []int) bool {
	n := ms.side
	if len(cfg) != n*n {
		return false
	}
	seen := make([]bool, n*n)
	for _, v := range cfg {
		if v < 0 || v >= n*n || seen[v] {
			return false
		}
		seen[v] = true
	}
	for r := 0; r < n; r++ {
		s := 0
		for c := 0; c < n; c++ {
			s += cfg[r*n+c] + 1
		}
		if s != ms.m {
			return false
		}
	}
	for c := 0; c < n; c++ {
		s := 0
		for r := 0; r < n; r++ {
			s += cfg[r*n+c] + 1
		}
		if s != ms.m {
			return false
		}
	}
	s1, s2 := 0, 0
	for r := 0; r < n; r++ {
		s1 += cfg[r*n+r] + 1
		s2 += cfg[r*n+(n-1-r)] + 1
	}
	return s1 == ms.m && s2 == ms.m
}
