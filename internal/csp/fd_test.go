package csp

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/rng"
)

// fdTestModel is a small mixed model: two linear constraints (one with
// coefficients and a repeated variable) plus a custom constraint, over
// heterogeneous explicit domains.
func fdTestModel(t *testing.T) *CompiledFD {
	t.Helper()
	m := NewModel(5, 1)
	m.AddLinearSum("sum", []int{0, 1, 2}, nil, 9)
	m.AddLinearSum("coef", []int{2, 3, 0, 3}, []int{2, -1, 1, -1}, 1)
	m.AddCustom("near", []int{3, 4}, func(vals []int) int {
		d := vals[0] - vals[1]
		if d < 0 {
			d = -d
		}
		if d > 2 {
			return d - 2
		}
		return 0
	})
	m.SetDomainRange(0, 0, 4)
	m.SetDomain(1, 3, 1, 1, 5) // unsorted, duplicated: New must canonicalize
	m.SetDomainRange(3, 0, 6)
	m.SetDomain(4, 0, 2, 4, 6)
	// Variable 2 keeps the default domain [0, 5).
	p, err := m.CompileFD()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCompileFDDomains(t *testing.T) {
	p := fdTestModel(t)
	wantDoms := [][]int{
		{0, 1, 2, 3, 4},
		{1, 3, 5},
		{0, 1, 2, 3, 4},
		{0, 1, 2, 3, 4, 5, 6},
		{0, 2, 4, 6},
	}
	for i, want := range wantDoms {
		got := p.Domain(i)
		if len(got) != len(want) {
			t.Fatalf("Domain(%d) = %v, want %v", i, got, want)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("Domain(%d) = %v, want %v", i, got, want)
			}
		}
	}
}

func TestCompileFDRejectsEmptyAndOutOfRange(t *testing.T) {
	m := NewModel(3, 0)
	m.AddLinearSum("s", []int{0, 1, 2}, nil, 3)
	m.SetDomainRange(1, 5, 2) // inverted: empty
	if _, err := m.CompileFD(); !errors.Is(err, ErrModel) {
		t.Fatalf("empty domain: err = %v, want ErrModel", err)
	}

	m2 := NewModel(3, 0)
	m2.AddLinearSum("s", []int{0, 1, 2}, nil, 3)
	m2.SetDomain(7, 1, 2)
	if _, err := m2.CompileFD(); !errors.Is(err, ErrModel) {
		t.Fatalf("out-of-range variable: err = %v, want ErrModel", err)
	}
}

// TestReduceDomainsPropagates checks the offset folding: with
// ValueOffset = 1, x+y == 4 over engine domains [0,4] means engine
// values must satisfy x+y == 2, so reduction clamps both to [0,2].
func TestReduceDomainsPropagates(t *testing.T) {
	m := NewModel(2, 1)
	m.AddLinearSum("s", []int{0, 1}, nil, 4)
	m.SetDomainRange(0, 0, 4)
	m.SetDomainRange(1, 0, 4)
	p, err := m.CompileFD()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ReduceDomains(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		d := p.Domain(i)
		if len(d) != 3 || d[0] != 0 || d[2] != 2 {
			t.Fatalf("Domain(%d) = %v after reduction, want [0 1 2]", i, d)
		}
	}
}

// TestReduceDomainsUnsatisfiable: 2x == 7 has no integer solution; the
// typed proof must surface through ReduceDomains.
func TestReduceDomainsUnsatisfiable(t *testing.T) {
	m := NewModel(1, 0)
	m.AddLinearSum("odd", []int{0}, []int{2}, 7)
	m.SetDomainRange(0, 0, 10)
	p, err := m.CompileFD()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ReduceDomains(); !errors.Is(err, domain.ErrUnsatisfiable) {
		t.Fatalf("ReduceDomains = %v, want ErrUnsatisfiable", err)
	}
}

// driveFDWalk walks the compiled FD problem through the engine's exact
// mutation pattern — Cost at run start, random in-domain assignments
// through ExecutedAssign, periodic full rebuilds — invoking check at
// every step.
func driveFDWalk(t *testing.T, p *CompiledFD, steps int, check func(cfg []int, cost int, step string)) {
	t.Helper()
	n := p.Size()
	r := rng.New(2012)
	cfg := make([]int, n)
	for i := range cfg {
		d := p.Domain(i)
		cfg[i] = d[r.Intn(len(d))]
	}
	cost := p.Cost(cfg)
	check(cfg, cost, "initial")
	for step := 0; step < steps; step++ {
		i := r.Intn(n)
		d := p.Domain(i)
		v := d[r.Intn(len(d))]
		cost = p.CostIfAssign(cfg, cost, i, v)
		old := cfg[i]
		cfg[i] = v
		p.ExecutedAssign(cfg, i, old)
		check(cfg, cost, "after assign")
		if step%37 == 0 {
			if rebuilt := p.Cost(cfg); rebuilt != cost {
				t.Fatalf("step %d: incremental cost %d != rebuilt cost %d", step, cost, rebuilt)
			}
			check(cfg, cost, "after Cost rebuild")
		}
	}
}

// TestFDAssignConsistency drives a random assignment walk and checks,
// at every step, the batched row against per-call CostIfAssign, the
// per-call delta against a from-scratch Cost of the mutated copy, and
// the maintained error vector against the per-variable scan.
func TestFDAssignConsistency(t *testing.T) {
	p := fdTestModel(t)
	n := p.Size()
	scratch := make([]int, n)
	row := make([]int, 16)
	// Reference instance over the same model: Cost recomputes every
	// constraint from scratch, so it never depends on p's caches.
	fresh, err := p.model.Compile()
	if err != nil {
		t.Fatal(err)
	}
	driveFDWalk(t, p, 150, func(cfg []int, cost int, step string) {
		for i := 0; i < n; i++ {
			d := p.Domain(i)
			p.CostsIfAssignAll(cfg, cost, i, row[:len(d)])
			for k, v := range d {
				want := p.CostIfAssign(cfg, cost, i, v)
				if row[k] != want {
					t.Fatalf("%s: CostsIfAssignAll(%d)[%d] = %d, CostIfAssign = %d (cfg %v)",
						step, i, k, row[k], want, cfg)
				}
				copy(scratch, cfg)
				scratch[i] = v
				if got := fresh.Cost(scratch); got != want {
					t.Fatalf("%s: CostIfAssign(%d, %d) = %d, fresh Cost = %d (cfg %v)",
						step, i, v, want, got, cfg)
				}
			}
		}
		live := p.LiveErrors(cfg)
		for i := 0; i < n; i++ {
			if want := p.CostOnVariable(cfg, i); live[i] != want {
				t.Fatalf("%s: errVec[%d] = %d, CostOnVariable = %d", step, i, live[i], want)
			}
		}
	})
}

// TestFDSolveEndToEnd runs the full engine over a compiled FD model and
// checks the solution satisfies every constraint.
func TestFDSolveEndToEnd(t *testing.T) {
	t.Run(core.StrategyAdaptive, func(t *testing.T) {
		m := NewModel(4, 1)
		m.AddLinearSum("sum", []int{0, 1, 2, 3}, nil, 14)
		m.AddLinearSum("pair", []int{0, 3}, nil, 7)
		m.SetDomainRange(0, 0, 5)
		m.SetDomainRange(1, 0, 5)
		m.SetDomainRange(2, 0, 5)
		m.SetDomainRange(3, 0, 5)
		p, err := m.CompileFD()
		if err != nil {
			t.Fatal(err)
		}
		opts := core.DefaultOptions(p.Size())
		opts.Seed = 7
		opts.MaxIterations = 20000
		res, err := core.Solve(context.Background(), p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Solved {
			t.Fatalf("unsolved: %v", res)
		}
		if res.Assigns == 0 {
			t.Fatalf("FD run reported zero assigns: %v", res)
		}
		if res.Swaps != 0 {
			t.Fatalf("FD run reported %d swaps, want 0", res.Swaps)
		}
		sum := 0
		for _, v := range res.Solution {
			sum += v + 1
		}
		if sum != 14 {
			t.Fatalf("solution %v sums to %d, want 14", res.Solution, sum)
		}
		if got := res.Solution[0] + res.Solution[3] + 2; got != 7 {
			t.Fatalf("solution %v: pair sums to %d, want 7", res.Solution, got)
		}
		if err := core.ValidateFDConfig(p, res.Solution); err != nil {
			t.Fatalf("solution outside domains: %v", err)
		}
	})
}

// TestFDSolveUnsatisfiableSurfacesTypedError: the engine must run
// reduction pre-search and abort with the typed proof.
func TestFDSolveUnsatisfiableSurfacesTypedError(t *testing.T) {
	m := NewModel(2, 0)
	m.AddLinearSum("odd", []int{0, 1}, []int{2, 2}, 5)
	m.SetDomainRange(0, 0, 9)
	m.SetDomainRange(1, 0, 9)
	p, err := m.CompileFD()
	if err != nil {
		t.Fatal(err)
	}
	_, err = core.Solve(context.Background(), p, core.DefaultOptions(p.Size()))
	if !errors.Is(err, domain.ErrUnsatisfiable) {
		t.Fatalf("Solve = %v, want ErrUnsatisfiable", err)
	}
}
