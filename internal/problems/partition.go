package problems

import (
	"fmt"

	"repro/internal/core"
)

func init() {
	register(builder{
		name:        "partition",
		description: "Number partitioning: split 1..n into two halves with equal sums and equal sums of squares (CSPLib prob049 flavour)",
		defaultSize: 64,
		paperSize:   2600,
		maxSize:     1 << 16,
		build:       func(n int) (core.Problem, error) { return NewPartition(n) },
	})
}

// Partition encodes the numbers benchmark of the C library ("partit"):
// split {1..n} into two sets of n/2 numbers such that both sets have the
// same sum and the same sum of squares. The configuration is a
// permutation of [0, n); positions 0..n/2-1 form set A (value at
// position i is cfg[i]+1). The cost is |sumA - S/2| + |sqA - Q/2| where
// S and Q are the total sum and sum of squares. Swaps within a half are
// cost-neutral; swaps across halves have O(1) deltas.
type Partition struct {
	n         int
	half      int
	targetSum int
	targetSq  int
	sumA, sqA int // cached first-half aggregates

	// errVec caches the per-position projected errors. An entry depends
	// only on the position's half, its value and the *signs* of the two
	// aggregate deviations, so a swap that leaves both signs unchanged
	// touches only the two swapped entries; a sign flip invalidates the
	// vector for a lazy O(n) rebuild (no worse than the per-variable
	// scan it replaces, and rare once the search settles near balance).
	errVec        []int
	errValid      bool
	sgnSum, sgnSq int // signs of sumA-targetSum / sqA-targetSq at the last rebuild
}

// NewPartition returns an instance for n numbers. Solutions require n a
// multiple of 8 (so that both targets are integral and a partition
// exists); other n are rejected.
func NewPartition(n int) (*Partition, error) {
	if n < 8 {
		return nil, fmt.Errorf("partition: n must be >= 8, got %d", n)
	}
	if n%8 != 0 {
		return nil, fmt.Errorf("partition: n must be a multiple of 8, got %d (otherwise no equal-sum/equal-squares split exists)", n)
	}
	s := n * (n + 1) / 2
	q := n * (n + 1) * (2*n + 1) / 6
	return &Partition{
		n:         n,
		half:      n / 2,
		targetSum: s / 2,
		targetSq:  q / 2,
		errVec:    make([]int, n),
	}, nil
}

var _ core.PermProblem = (*Partition)(nil)

// sign returns -1, 0 or 1.
func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	default:
		return 0
	}
}

// Size implements core.Problem.
func (p *Partition) Size() int { return p.n }

// Cost implements core.Problem, rebuilding the first-half aggregates.
func (p *Partition) Cost(cfg []int) int {
	sum, sq := 0, 0
	for i := 0; i < p.half; i++ {
		v := cfg[i] + 1
		sum += v
		sq += v * v
	}
	p.sumA, p.sqA = sum, sq
	p.errValid = false
	return abs(sum-p.targetSum) + abs(sq-p.targetSq)
}

// CostOnVariable implements core.Problem. The error projected on a
// position is the pressure to move its value to the other half: values
// that enlarge their half's surplus get errors proportional to their
// magnitude, so the engine targets big offenders first.
func (p *Partition) CostOnVariable(cfg []int, i int) int {
	ds := p.sumA - p.targetSum // >0 when A is over-full
	dq := p.sqA - p.targetSq
	v := cfg[i] + 1
	inA := i < p.half
	e := 0
	if (inA && ds > 0) || (!inA && ds < 0) {
		e += v
	}
	if (inA && dq > 0) || (!inA && dq < 0) {
		e += v * v / p.n // scale squares down to the values' magnitude
	}
	return e
}

// CostIfSwap implements core.Problem: only cross-half swaps change the
// aggregates.
func (p *Partition) CostIfSwap(cfg []int, cost, i, j int) int {
	iInA, jInA := i < p.half, j < p.half
	if iInA == jInA {
		return cost
	}
	if !iInA {
		i, j = j, i // ensure i in A, j in B
	}
	vi, vj := cfg[i]+1, cfg[j]+1
	sum := p.sumA - vi + vj
	sq := p.sqA - vi*vi + vj*vj
	return abs(sum-p.targetSum) + abs(sq-p.targetSq)
}

// ExecutedSwap implements core.PermProblem. The cached error vector is
// delta-maintained: an in-half swap only exchanges two values, and a
// cross-half swap that leaves both aggregate-deviation signs unchanged
// perturbs only the two swapped entries; a sign flip schedules a lazy
// full rebuild.
func (p *Partition) ExecutedSwap(cfg []int, i, j int) {
	iInA, jInA := i < p.half, j < p.half
	if iInA == jInA {
		if p.errValid {
			p.errVec[i] = p.CostOnVariable(cfg, i)
			p.errVec[j] = p.CostOnVariable(cfg, j)
		}
		return
	}
	if !iInA {
		i, j = j, i
	}
	// cfg is already swapped: position i now holds the value that moved
	// into A, and j the value that left A.
	vIn, vOut := cfg[i]+1, cfg[j]+1
	p.sumA += vIn - vOut
	p.sqA += vIn*vIn - vOut*vOut
	if p.errValid {
		if sign(p.sumA-p.targetSum) != p.sgnSum || sign(p.sqA-p.targetSq) != p.sgnSq {
			p.errValid = false
		} else {
			p.errVec[i] = p.CostOnVariable(cfg, i)
			p.errVec[j] = p.CostOnVariable(cfg, j)
		}
	}
}

// CostsIfSwapAll implements core.PermProblem. Position i's half and
// value are hoisted; same-half candidates are cost-neutral by
// construction and cross-half candidates cost O(1) arithmetic.
func (p *Partition) CostsIfSwapAll(cfg []int, cost, i int, out []int) {
	iInA := i < p.half
	vi := cfg[i] + 1
	for j, raw := range cfg {
		if j == i {
			out[i] = cost
			continue
		}
		if (j < p.half) == iInA {
			out[j] = cost
			continue
		}
		vj := raw + 1
		var sum, sq int
		if iInA {
			sum = p.sumA - vi + vj
			sq = p.sqA - vi*vi + vj*vj
		} else {
			sum = p.sumA - vj + vi
			sq = p.sqA - vj*vj + vi*vi
		}
		out[j] = abs(sum-p.targetSum) + abs(sq-p.targetSq)
	}
}

// LiveErrors implements core.Problem, rebuilding the
// vector lazily after a full Cost recompute or a sign flip.
func (p *Partition) LiveErrors(cfg []int) []int {
	if !p.errValid {
		for k := range p.errVec {
			p.errVec[k] = p.CostOnVariable(cfg, k)
		}
		p.sgnSum = sign(p.sumA - p.targetSum)
		p.sgnSq = sign(p.sqA - p.targetSq)
		p.errValid = true
	}
	return p.errVec
}

// Tune implements core.Tuner: partition landscapes are dominated by
// plateaus; the C benchmark runs with a strong probabilistic escape and
// tiny resets.
func (p *Partition) Tune(o *core.Options) {
	o.ProbSelectLocMin = 0.8
	o.FreezeLocMin = 1
	o.ResetLimit = 2
	o.ResetFraction = 0.05
	o.MaxIterations = int64(p.n) * 2_000
}

// Verify independently checks that cfg is a valid equal-sum/equal-
// squares split.
func (p *Partition) Verify(cfg []int) bool {
	if len(cfg) != p.n {
		return false
	}
	seen := make([]bool, p.n)
	for _, v := range cfg {
		if v < 0 || v >= p.n || seen[v] {
			return false
		}
		seen[v] = true
	}
	sum, sq := 0, 0
	for i := 0; i < p.half; i++ {
		v := cfg[i] + 1
		sum += v
		sq += v * v
	}
	return sum == p.targetSum && sq == p.targetSq
}
