package problems

import (
	"fmt"

	"repro/internal/core"
)

func init() {
	register(builder{
		name:        "langford",
		description: "Langford pairs L(2,n): arrange two copies of 1..n so the copies of k are k+1 apart (CSPLib prob024)",
		defaultSize: 32,
		paperSize:   32,
		maxSize:     1 << 16,
		build:       func(n int) (core.Problem, error) { return NewLangford(n) },
	})
}

// Langford encodes L(2,n) (CSPLib prob024). There are 2n items: items
// 2k and 2k+1 are the two copies of the value k+1 (0-based k). The
// configuration maps items to sequence positions: cfg[item] = position.
// The constraint for value v = k+1 is that its two copies sit exactly
// v+1 positions apart (v values between them is the classical phrasing
// with v-1... this library follows the CSPLib convention: the two
// occurrences of v are separated by exactly v other numbers, i.e.
// |pos1-pos2| = v+1). The cost sums each value's deviation from its
// required separation, with O(1) swap deltas.
type Langford struct {
	n    int   // number of values; 2n items
	dev  []int // dev[k] = | |p1-p2| - (k+2) | cached per value
	cost int   // cached total (kept consistent by Cost/ExecutedSwap)

	// errVec[2k] = errVec[2k+1] = dev[k]: the per-item projection of
	// the value deviations, delta-maintained by ExecutedSwap (a swap
	// touches at most two values, so at most four entries).
	errVec []int
}

var (
	_ core.SwapExecutor          = (*Langford)(nil)
	_ core.MaintainedErrorVector = (*Langford)(nil)
	_ core.MoveEvaluator         = (*Langford)(nil)
)

// NewLangford returns an L(2,n) instance. Solutions exist only for
// n ≡ 0 or 3 (mod 4); other n are rejected so searches cannot run
// forever on unsatisfiable instances.
func NewLangford(n int) (*Langford, error) {
	if n < 3 {
		return nil, fmt.Errorf("langford: n must be >= 3, got %d", n)
	}
	if m := n % 4; m != 0 && m != 3 {
		return nil, fmt.Errorf("langford: L(2,%d) has no solutions (n must be 0 or 3 mod 4)", n)
	}
	return &Langford{n: n, dev: make([]int, n), errVec: make([]int, 2*n)}, nil
}

// Values returns n, the number of distinct values.
func (l *Langford) Values() int { return l.n }

// Size implements core.Problem: 2n items.
func (l *Langford) Size() int { return 2 * l.n }

// deviation computes value k's separation error under cfg.
func (l *Langford) deviation(cfg []int, k int) int {
	d := cfg[2*k] - cfg[2*k+1]
	if d < 0 {
		d = -d
	}
	return abs(d - (k + 2))
}

// Cost implements core.Problem, rebuilding the per-value deviations and
// the error vector.
func (l *Langford) Cost(cfg []int) int {
	total := 0
	for k := 0; k < l.n; k++ {
		d := l.deviation(cfg, k)
		l.dev[k] = d
		l.errVec[2*k] = d
		l.errVec[2*k+1] = d
		total += d
	}
	l.cost = total
	return total
}

// CostOnVariable implements core.Problem: an item's error is its
// value's deviation.
func (l *Langford) CostOnVariable(cfg []int, i int) int {
	return l.dev[i/2]
}

// CostIfSwap implements core.Problem: swapping the positions of items i
// and j affects only their two values.
func (l *Langford) CostIfSwap(cfg []int, cost, i, j int) int {
	ki, kj := i/2, j/2
	cfg[i], cfg[j] = cfg[j], cfg[i]
	cost += l.deviation(cfg, ki) - l.dev[ki]
	if kj != ki {
		cost += l.deviation(cfg, kj) - l.dev[kj]
	}
	cfg[i], cfg[j] = cfg[j], cfg[i]
	return cost
}

// ExecutedSwap implements core.SwapExecutor: only the (at most two)
// values owning the swapped items change, so only their deviations and
// error-vector entries are refreshed.
func (l *Langford) ExecutedSwap(cfg []int, i, j int) {
	ki, kj := i/2, j/2
	l.cost -= l.dev[ki]
	d := l.deviation(cfg, ki)
	l.dev[ki] = d
	l.errVec[2*ki] = d
	l.errVec[2*ki+1] = d
	l.cost += d
	if kj != ki {
		l.cost -= l.dev[kj]
		d = l.deviation(cfg, kj)
		l.dev[kj] = d
		l.errVec[2*kj] = d
		l.errVec[2*kj+1] = d
		l.cost += d
	}
}

// CostsIfSwapAll implements core.MoveEvaluator. Item i's value and
// current deviation are hoisted; each candidate costs two deviation
// recomputes at most.
func (l *Langford) CostsIfSwapAll(cfg []int, cost, i int, out []int) {
	ki := i / 2
	devKi := l.dev[ki]
	pi := cfg[i]
	for j, pj := range cfg {
		if j == i {
			out[i] = cost
			continue
		}
		kj := j / 2
		cfg[i], cfg[j] = pj, pi
		c := cost + l.deviation(cfg, ki) - devKi
		if kj != ki {
			c += l.deviation(cfg, kj) - l.dev[kj]
		}
		cfg[i], cfg[j] = pi, pj
		out[j] = c
	}
}

// LiveErrors implements core.MaintainedErrorVector: the vector is kept
// current by Cost and ExecutedSwap.
func (l *Langford) LiveErrors(cfg []int) []int { return l.errVec }

// ErrorsOnVariables implements core.ErrorVector.
func (l *Langford) ErrorsOnVariables(cfg []int, out []int) {
	copy(out, l.errVec)
}

// Tune implements core.Tuner (settings in the spirit of the C
// benchmark: moderate tabu with value-scaled reset threshold).
func (l *Langford) Tune(o *core.Options) {
	o.FreezeLocMin = 2
	o.ResetLimit = l.n / 2
	if o.ResetLimit < 2 {
		o.ResetLimit = 2
	}
	o.ResetFraction = 0.1
	o.MaxIterations = int64(l.n) * 4_000
}

// Verify independently checks that cfg solves L(2,n).
func (l *Langford) Verify(cfg []int) bool {
	if len(cfg) != 2*l.n {
		return false
	}
	seen := make([]bool, 2*l.n)
	for _, v := range cfg {
		if v < 0 || v >= 2*l.n || seen[v] {
			return false
		}
		seen[v] = true
	}
	for k := 0; k < l.n; k++ {
		d := cfg[2*k] - cfg[2*k+1]
		if d < 0 {
			d = -d
		}
		if d != k+2 {
			return false
		}
	}
	return true
}
