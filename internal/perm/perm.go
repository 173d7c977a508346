// Package perm provides small permutation utilities shared by the Adaptive
// Search engine and the benchmark problem encodings. Every benchmark in the
// paper (all-interval, perfect-square, magic-square, Costas arrays) is
// modelled as a permutation problem, so these helpers are the common
// substrate underneath internal/problems.
package perm

import (
	"fmt"
	"slices"

	"repro/internal/rng"
)

// Identity returns the identity permutation [0, 1, ..., n-1].
func Identity(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// Random returns a uniformly random permutation of [0, n) drawn from r.
func Random(n int, r *rng.Rand) []int {
	return r.Perm(n)
}

// IsPermutation reports whether p contains each value in [0, len(p))
// exactly once.
func IsPermutation(p []int) bool {
	seen := make([]bool, len(p))
	for _, v := range p {
		if v < 0 || v >= len(p) || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// Validate returns a descriptive error if p is not a permutation of
// [0, len(p)). It is used at API boundaries where a caller-supplied
// configuration enters the engine.
func Validate(p []int) error {
	seen := make([]bool, len(p))
	for i, v := range p {
		if v < 0 || v >= len(p) {
			return fmt.Errorf("perm: value %d at index %d out of range [0,%d)", v, i, len(p))
		}
		if seen[v] {
			return fmt.Errorf("perm: duplicate value %d at index %d", v, i)
		}
		seen[v] = true
	}
	return nil
}

// Swap exchanges positions i and j of p.
func Swap(p []int, i, j int) {
	p[i], p[j] = p[j], p[i]
}

// PartialShuffle re-randomizes k positions of p chosen uniformly at random,
// preserving the permutation property: the values at the chosen positions
// are shuffled among themselves. This implements the Adaptive Search
// partial reset. k is clamped to [0, len(p)]. With k < 2 it is a no-op.
func PartialShuffle(p []int, k int, r *rng.Rand) {
	n := len(p)
	PartialShuffleScratch(p, k, r, make([]int, n), make([]int, n))
}

// PartialShuffleScratch is PartialShuffle with caller-provided scratch,
// for hot paths that reset repeatedly and must not allocate: idx must
// have length >= len(p) and vals >= min(k, len(p)); both are
// overwritten. The RNG consumption is identical to PartialShuffle's.
func PartialShuffleScratch(p []int, k int, r *rng.Rand, idx, vals []int) {
	n := len(p)
	if k > n {
		k = n
	}
	if k < 2 {
		return
	}
	// Choose k distinct positions by a partial Fisher-Yates over an index
	// slice, then cyclically shuffle the values at those positions.
	idx = idx[:n]
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	chosen := idx[:k]
	// Shuffle values at the chosen positions among themselves.
	vals = vals[:k]
	for i, pos := range chosen {
		vals[i] = p[pos]
	}
	r.Shuffle(vals)
	for i, pos := range chosen {
		p[pos] = vals[i]
	}
}

// RandomSwaps applies k uniformly random transpositions to p. It is an
// alternative perturbation operator used by the dependent multi-walk
// engine to diversify around an elite configuration.
func RandomSwaps(p []int, k int, r *rng.Rand) {
	n := len(p)
	if n < 2 {
		return
	}
	for s := 0; s < k; s++ {
		i := r.Intn(n)
		j := r.Intn(n - 1)
		if j >= i {
			j++
		}
		p[i], p[j] = p[j], p[i]
	}
}

// Inversions returns the number of inversions of p (pairs i<j with
// p[i] > p[j]) counted with a merge-sort, O(n log n). Used by tests and
// by the diversity metric of the dependent multi-walk scheme.
func Inversions(p []int) int {
	buf := make([]int, len(p))
	work := slices.Clone(p)
	return mergeCount(work, buf)
}

func mergeCount(a, buf []int) int {
	n := len(a)
	if n < 2 {
		return 0
	}
	mid := n / 2
	inv := mergeCount(a[:mid], buf) + mergeCount(a[mid:], buf)
	i, j, k := 0, mid, 0
	for i < mid && j < n {
		if a[i] <= a[j] {
			buf[k] = a[i]
			i++
		} else {
			buf[k] = a[j]
			inv += mid - i
			j++
		}
		k++
	}
	for i < mid {
		buf[k] = a[i]
		i++
		k++
	}
	for j < n {
		buf[k] = a[j]
		j++
		k++
	}
	copy(a, buf[:n])
	return inv
}

// Distance returns the Cayley distance between permutations p and q: the
// minimum number of transpositions transforming p into q. It equals
// n minus the number of cycles of q∘p⁻¹. Panics if lengths differ.
// The dependent multi-walk scheme uses it to measure walker diversity.
func Distance(p, q []int) int {
	if len(p) != len(q) {
		panic("perm: Distance on permutations of different lengths")
	}
	n := len(p)
	inv := make([]int, n)
	for i, v := range p {
		inv[v] = i
	}
	visited := make([]bool, n)
	cycles := 0
	for i := 0; i < n; i++ {
		if visited[i] {
			continue
		}
		cycles++
		for j := i; !visited[j]; {
			visited[j] = true
			j = inv[q[j]]
		}
	}
	return n - cycles
}
