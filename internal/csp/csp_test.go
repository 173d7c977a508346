package csp

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/perm"
	"repro/internal/rng"
)

// tinyModel: permutation of [0,4), values 1..4; constraints force a
// unique-ish structure: v(0)+v(1) == 3 and v(2)*v(3) == 12 (only {3,4}
// in some order), plus a custom all-even-position constraint.
func tinyModel(t *testing.T) *Compiled {
	t.Helper()
	m := NewModel(4, 1)
	m.AddLinearSum("sum01", []int{0, 1}, nil, 3)
	m.AddCustom("prod23", []int{2, 3}, func(vals []int) int {
		d := vals[0]*vals[1] - 12
		if d < 0 {
			d = -d
		}
		return d
	})
	c, err := m.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCompileValidation(t *testing.T) {
	if _, err := NewModel(0, 0).Compile(); err == nil {
		t.Error("0 variables accepted")
	}
	if _, err := NewModel(3, 0).Compile(); err == nil {
		t.Error("no constraints accepted")
	}
	m := NewModel(3, 0)
	m.AddLinearSum("empty", nil, nil, 5)
	if _, err := m.Compile(); err == nil {
		t.Error("constraint without variables accepted")
	}
	m2 := NewModel(3, 0)
	m2.AddLinearSum("badvar", []int{5}, nil, 5)
	if _, err := m2.Compile(); err == nil {
		t.Error("out-of-range variable accepted")
	}
	m3 := NewModel(3, 0)
	m3.AddLinearSum("badcoeffs", []int{0, 1}, []int{1}, 5)
	if _, err := m3.Compile(); err == nil {
		t.Error("coeffs length mismatch accepted")
	}
	m4 := NewModel(3, 0)
	m4.AddWeighted("badweight", []int{0}, 0, func([]int) int { return 0 })
	if _, err := m4.Compile(); err == nil {
		t.Error("zero weight accepted")
	}
}

func TestCostSemantics(t *testing.T) {
	c := tinyModel(t)
	// cfg = [0,1,2,3] -> values [1,2,3,4]: sum01 = 3 ok; prod23 = 12 ok.
	if got := c.Cost([]int{0, 1, 2, 3}); got != 0 {
		t.Fatalf("satisfying assignment has cost %d", got)
	}
	// cfg = [3,2,1,0] -> values [4,3,2,1]: sum01 = 7 (viol 4),
	// prod23 = 2 (viol 10).
	if got := c.Cost([]int{3, 2, 1, 0}); got != 14 {
		t.Fatalf("cost = %d, want 14", got)
	}
	// CostOnVariable: var 0 touches only sum01.
	if got := c.CostOnVariable([]int{3, 2, 1, 0}, 0); got != 4 {
		t.Fatalf("CostOnVariable(0) = %d, want 4", got)
	}
	if got := c.CostOnVariable([]int{3, 2, 1, 0}, 3); got != 10 {
		t.Fatalf("CostOnVariable(3) = %d, want 10", got)
	}
}

func TestValueOffset(t *testing.T) {
	m := NewModel(2, 10) // values are cfg[i]+10
	m.AddLinearSum("s", []int{0, 1}, nil, 21)
	c, err := m.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Cost([]int{0, 1}); got != 0 {
		t.Fatalf("offset values 10+11 should sum to 21, cost %d", got)
	}
}

func TestCoefficientsAndWeights(t *testing.T) {
	m := NewModel(3, 0)
	m.AddLinearSum("lin", []int{0, 1, 2}, []int{2, -1, 3}, 4)
	m.AddWeighted("w", []int{0}, 5, func(vals []int) int { return vals[0] })
	c, err := m.Compile()
	if err != nil {
		t.Fatal(err)
	}
	// cfg [0,1,2]: lin = 0-1+6-4 = 1 -> 1; w = 5*0 = 0.
	if got := c.Cost([]int{0, 1, 2}); got != 1 {
		t.Fatalf("cost = %d, want 1", got)
	}
	// cfg [2,0,1]: lin = 4-0+3-4 = 3; w = 5*2 = 10.
	if got := c.Cost([]int{2, 0, 1}); got != 13 {
		t.Fatalf("cost = %d, want 13", got)
	}
}

func TestRepeatedVariables(t *testing.T) {
	// Double letters: variable 0 appears twice.
	m := NewModel(2, 1)
	m.AddLinearSum("dd", []int{0, 0, 1}, nil, 5)
	c, err := m.Compile()
	if err != nil {
		t.Fatal(err)
	}
	// values [1,2]: 1+1+2 = 4, viol 1.
	if got := c.Cost([]int{0, 1}); got != 1 {
		t.Fatalf("cost = %d, want 1", got)
	}
	// values [2,1]: 2+2+1 = 5, viol 0.
	if got := c.Cost([]int{1, 0}); got != 0 {
		t.Fatalf("cost = %d, want 0", got)
	}
}

func TestIncrementalConsistency(t *testing.T) {
	c := tinyModel(t)
	oracle := tinyModel(t)
	r := rng.New(3)
	cfg := r.Perm(4)
	cost := c.Cost(cfg)
	for step := 0; step < 200; step++ {
		i := r.Intn(4)
		j := r.Intn(3)
		if j >= i {
			j++
		}
		pred := c.CostIfSwap(cfg, cost, i, j)
		// Repeatability (no state corruption).
		if again := c.CostIfSwap(cfg, cost, i, j); again != pred {
			t.Fatalf("CostIfSwap not repeatable: %d vs %d", pred, again)
		}
		cfg[i], cfg[j] = cfg[j], cfg[i]
		c.ExecutedSwap(cfg, i, j)
		cost = pred
		if want := oracle.Cost(cfg); cost != want {
			t.Fatalf("step %d: incremental cost %d != ground truth %d", step, cost, want)
		}
	}
}

func TestSolveThroughEngine(t *testing.T) {
	c := tinyModel(t)
	res, err := core.Solve(context.Background(), c, core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("tiny model unsolved: %v", res)
	}
	if !perm.IsPermutation(res.Solution) {
		t.Fatalf("solution not a permutation: %v", res.Solution)
	}
	fresh := tinyModel(t)
	if fresh.Cost(res.Solution) != 0 {
		t.Fatalf("engine solution does not satisfy the model: %v", res.Solution)
	}
}

func TestViolationsDiagnostic(t *testing.T) {
	c := tinyModel(t)
	c.Cost([]int{3, 2, 1, 0})
	v := c.Violations()
	if v["sum01"] != 4 || v["prod23"] != 10 {
		t.Fatalf("Violations = %v", v)
	}
}

func TestModelAccessors(t *testing.T) {
	m := NewModel(7, 1)
	if m.N() != 7 {
		t.Fatal("N wrong")
	}
	m.AddLinearSum("a", []int{0}, nil, 1)
	m.AddCustom("b", []int{1}, func([]int) int { return 0 })
	if m.Constraints() != 2 {
		t.Fatal("Constraints wrong")
	}
	c, err := m.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if c.Size() != 7 {
		t.Fatal("Compiled accessors wrong")
	}
}

// TestCompiledMatchesNaiveEvaluation property-checks the compiled
// incremental problem against naive full evaluation over random walks.
func TestCompiledMatchesNaiveEvaluation(t *testing.T) {
	build := func() *Compiled {
		m := NewModel(8, 1)
		m.AddLinearSum("s1", []int{0, 1, 2}, nil, 12)
		m.AddLinearSum("s2", []int{2, 3, 4}, []int{1, 2, 1}, 15)
		m.AddCustom("c1", []int{5, 6}, func(v []int) int {
			if v[0] > v[1] {
				return v[0] - v[1]
			}
			return 0
		})
		m.AddWeighted("w1", []int{7, 0}, 3, func(v []int) int {
			d := v[0] - v[1]
			if d < 0 {
				d = -d
			}
			return d % 3
		})
		c, err := m.Compile()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c := build()
	oracle := build()
	r := rng.New(17)
	cfg := r.Perm(8)
	cost := c.Cost(cfg)
	for step := 0; step < 300; step++ {
		i, j := r.Intn(8), r.Intn(7)
		if j >= i {
			j++
		}
		cost = c.CostIfSwap(cfg, cost, i, j)
		cfg[i], cfg[j] = cfg[j], cfg[i]
		c.ExecutedSwap(cfg, i, j)
		if want := oracle.Cost(cfg); cost != want {
			t.Fatalf("step %d: %d != %d", step, cost, want)
		}
		for v := 0; v < 8; v++ {
			if got, want := c.CostOnVariable(cfg, v), oracle.CostOnVariable(cfg, v); got != want {
				t.Fatalf("step %d var %d: %d != %d", step, v, got, want)
			}
		}
	}
}

// TestErrorVectorConsistency drives the compiled model through the
// engine's Cost / ExecutedSwap call pattern and checks the incremental
// error vector (the core.ErrorVector fast path) against the
// per-variable CostOnVariable scan at every step.
func TestErrorVectorConsistency(t *testing.T) {
	// A model with overlapping constraints so swaps push deltas onto
	// shared variables.
	build := func() *Compiled {
		m := NewModel(8, 1)
		m.AddLinearSum("sum012", []int{0, 1, 2}, nil, 12)
		m.AddLinearSum("sum234", []int{2, 3, 4}, []int{1, 2, 1}, 15)
		m.AddCustom("even56", []int{5, 6}, func(vals []int) int {
			return (vals[0] + vals[1]) % 2
		})
		m.AddWeighted("spread07", []int{0, 7}, 3, func(vals []int) int {
			d := vals[0] - vals[1]
			if d < 0 {
				d = -d
			}
			if d < 3 {
				return 3 - d
			}
			return 0
		})
		c, err := m.Compile()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	p := build()
	n := p.Size()
	r := rng.New(2012)
	cfg := r.Perm(n)
	p.Cost(cfg)
	out := make([]int, n)
	check := func(step string) {
		t.Helper()
		p.ErrorsOnVariables(cfg, out)
		for i := 0; i < n; i++ {
			if want := p.CostOnVariable(cfg, i); out[i] != want {
				t.Fatalf("%s: ErrorsOnVariables[%d] = %d, CostOnVariable = %d",
					step, i, out[i], want)
			}
		}
	}
	check("initial")
	for step := 0; step < 300; step++ {
		i := r.Intn(n)
		j := r.Intn(n - 1)
		if j >= i {
			j++
		}
		cfg[i], cfg[j] = cfg[j], cfg[i]
		p.ExecutedSwap(cfg, i, j)
		check("after swap")
		check("repeat query")
		if step%41 == 0 {
			p.Cost(cfg)
			check("after Cost rebuild")
		}
	}
}
