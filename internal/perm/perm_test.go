package perm

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestIdentity(t *testing.T) {
	p := Identity(5)
	for i, v := range p {
		if v != i {
			t.Fatalf("Identity(5)[%d] = %d", i, v)
		}
	}
	if len(Identity(0)) != 0 {
		t.Fatal("Identity(0) not empty")
	}
}

func TestIsPermutation(t *testing.T) {
	cases := []struct {
		p    []int
		want bool
	}{
		{[]int{}, true},
		{[]int{0}, true},
		{[]int{1, 0, 2}, true},
		{[]int{0, 0}, false},
		{[]int{0, 2}, false},
		{[]int{-1, 0}, false},
		{[]int{3, 1, 2, 0}, true},
	}
	for _, c := range cases {
		if got := IsPermutation(c.p); got != c.want {
			t.Errorf("IsPermutation(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestValidateErrors(t *testing.T) {
	if err := Validate([]int{0, 1, 2}); err != nil {
		t.Fatalf("valid permutation rejected: %v", err)
	}
	if err := Validate([]int{0, 0, 1}); err == nil {
		t.Fatal("duplicate accepted")
	}
	if err := Validate([]int{0, 5}); err == nil {
		t.Fatal("out-of-range accepted")
	}
	if err := Validate([]int{-1, 0}); err == nil {
		t.Fatal("negative accepted")
	}
}

func TestSwap(t *testing.T) {
	p := []int{0, 1, 2, 3}
	Swap(p, 1, 3)
	if p[1] != 3 || p[3] != 1 {
		t.Fatalf("Swap failed: %v", p)
	}
	Swap(p, 2, 2)
	if p[2] != 2 {
		t.Fatalf("self-swap changed value: %v", p)
	}
}

func TestPartialShufflePreservesPermutation(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 100; trial++ {
		p := Random(20, r)
		PartialShuffle(p, 5, r)
		if !IsPermutation(p) {
			t.Fatalf("PartialShuffle broke permutation: %v", p)
		}
	}
}

func TestPartialShuffleClampAndNoop(t *testing.T) {
	r := rng.New(2)
	p := Identity(5)
	PartialShuffle(p, 100, r) // clamped to 5, still a permutation
	if !IsPermutation(p) {
		t.Fatalf("clamped shuffle broke permutation: %v", p)
	}
	q := Identity(5)
	PartialShuffle(q, 1, r) // k<2 is a no-op
	for i, v := range q {
		if v != i {
			t.Fatalf("k=1 shuffle changed the permutation: %v", q)
		}
	}
	PartialShuffle(q, 0, r)
	PartialShuffle(nil, 3, r) // must not panic
}

func TestPartialShuffleTouchesOnlyKPositions(t *testing.T) {
	// With k=3 out of n=100, at most 3 positions may change.
	r := rng.New(3)
	for trial := 0; trial < 50; trial++ {
		p := Random(100, r)
		before := slices.Clone(p)
		PartialShuffle(p, 3, r)
		changed := 0
		for i := range p {
			if p[i] != before[i] {
				changed++
			}
		}
		if changed > 3 {
			t.Fatalf("PartialShuffle(k=3) changed %d positions", changed)
		}
	}
}

func TestRandomSwapsPreservesPermutation(t *testing.T) {
	r := rng.New(4)
	p := Random(30, r)
	RandomSwaps(p, 10, r)
	if !IsPermutation(p) {
		t.Fatalf("RandomSwaps broke permutation: %v", p)
	}
	q := []int{0}
	RandomSwaps(q, 5, r) // n<2 no-op, must not panic
	if q[0] != 0 {
		t.Fatal("RandomSwaps modified singleton")
	}
}

func TestInversions(t *testing.T) {
	cases := []struct {
		p    []int
		want int
	}{
		{[]int{}, 0},
		{[]int{0}, 0},
		{[]int{0, 1, 2}, 0},
		{[]int{2, 1, 0}, 3},
		{[]int{1, 0, 3, 2}, 2},
		{[]int{3, 2, 1, 0}, 6},
	}
	for _, c := range cases {
		if got := Inversions(c.p); got != c.want {
			t.Errorf("Inversions(%v) = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestInversionsMatchesBruteForce(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 50; trial++ {
		p := Random(40, r)
		brute := 0
		for i := 0; i < len(p); i++ {
			for j := i + 1; j < len(p); j++ {
				if p[i] > p[j] {
					brute++
				}
			}
		}
		if got := Inversions(p); got != brute {
			t.Fatalf("Inversions(%v) = %d, brute force = %d", p, got, brute)
		}
	}
}

func TestDistanceBasics(t *testing.T) {
	id := Identity(6)
	if d := Distance(id, id); d != 0 {
		t.Fatalf("Distance(id,id) = %d", d)
	}
	oneSwap := slices.Clone(id)
	Swap(oneSwap, 0, 5)
	if d := Distance(id, oneSwap); d != 1 {
		t.Fatalf("Distance after one transposition = %d, want 1", d)
	}
}

func TestDistanceSymmetric(t *testing.T) {
	r := rng.New(6)
	for trial := 0; trial < 50; trial++ {
		p := Random(15, r)
		q := Random(15, r)
		if Distance(p, q) != Distance(q, p) {
			t.Fatalf("Distance not symmetric for %v, %v", p, q)
		}
	}
}

func TestDistanceTriangleInequality(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 50; trial++ {
		a := Random(12, r)
		b := Random(12, r)
		c := Random(12, r)
		if Distance(a, c) > Distance(a, b)+Distance(b, c) {
			t.Fatalf("triangle inequality violated: %v %v %v", a, b, c)
		}
	}
}

func TestDistancePanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on mismatched lengths")
		}
	}()
	Distance([]int{0, 1}, []int{0})
}

func TestDistanceCountsMinTranspositions(t *testing.T) {
	// Applying k random transpositions gives distance <= k.
	r := rng.New(8)
	for trial := 0; trial < 50; trial++ {
		p := Random(20, r)
		q := slices.Clone(p)
		k := 1 + r.Intn(5)
		RandomSwaps(q, k, r)
		if d := Distance(p, q); d > k {
			t.Fatalf("distance %d after only %d transpositions", d, k)
		}
	}
}

func TestRandomIsPermutationProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		return IsPermutation(Random(25, r))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
