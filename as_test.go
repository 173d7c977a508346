package repro_test

import (
	"context"
	"errors"
	"slices"
	"testing"

	"repro"
)

// TestFacadeSequential exercises the public API end to end: construct a
// benchmark, solve it, check the statistics.
func TestFacadeSequential(t *testing.T) {
	p, err := repro.NewProblem("queens", 40)
	if err != nil {
		t.Fatal(err)
	}
	res, err := repro.Solve(context.Background(), p, repro.TunedOptions(p))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved || res.Cost != 0 {
		t.Fatalf("queens unsolved: %v", res)
	}
}

func TestFacadeParallel(t *testing.T) {
	f, err := repro.NewProblemFactory("costas", 10)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := repro.NewProblem("costas", 10)
	res, err := repro.SolveParallel(context.Background(), f, repro.MultiWalkOptions{
		Walkers: 3,
		Seed:    5,
		Engine:  repro.TunedOptions(p),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("parallel costas unsolved: %+v", res)
	}
}

func TestFacadeVirtual(t *testing.T) {
	f, err := repro.NewProblemFactory("costas", 9)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := repro.NewProblem("costas", 9)
	res, err := repro.SolveParallelVirtual(context.Background(), f, repro.MultiWalkOptions{
		Walkers: 4,
		Seed:    2,
		Engine:  repro.TunedOptions(p),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved || res.Winner < 0 {
		t.Fatalf("virtual run failed: %+v", res)
	}
}

func TestFacadeRegistry(t *testing.T) {
	names := repro.Benchmarks()
	if len(names) != 9 {
		t.Fatalf("expected 9 benchmarks, got %v", names)
	}
	if !slices.Contains(names, "timetable") {
		t.Fatalf("finite-domain benchmark missing from registry: %v", names)
	}
	if _, err := repro.NewProblem("bogus", 1); err == nil {
		t.Fatal("bogus benchmark accepted")
	}
}

// TestFacadeFiniteDomain exercises the parameterized construction path:
// a solvable timetable instance solves through the plain facade repro.Solve,
// an over-constrained parameter set is rejected by the pre-search
// domain reduction pass inside repro.Solve, and unknown parameters fail
// construction with the typed bad-params error.
func TestFacadeFiniteDomain(t *testing.T) {
	p, err := repro.NewProblemWithParams("timetable", 20, map[string]int{"slots": 6, "rooms": 4, "teachers": 4})
	if err != nil {
		t.Fatal(err)
	}
	opts := repro.TunedOptions(p)
	opts.Seed = 7
	res, err := repro.Solve(context.Background(), p, opts)
	if err != nil || !res.Solved {
		t.Fatalf("timetable solve failed: %+v %v", res, err)
	}
	if res.Assigns == 0 {
		t.Fatalf("finite-domain run executed no assign moves: %+v", res)
	}
	// Over-constrained parameters construct fine — unsatisfiability is
	// proven by the pre-search domain reduction pass inside Solve.
	unsat, err := repro.NewProblemWithParams("timetable", 3, map[string]int{"rooms": 1, "slots": 2, "teachers": 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repro.Solve(context.Background(), unsat, repro.TunedOptions(unsat)); !errors.Is(err, repro.ErrUnsatisfiable) {
		t.Fatalf("unsatisfiable parameter set not rejected by reduction: %v", err)
	}
	// A factory reduces its template once, up front, so there the proof
	// is the constructor's error: no walker is ever started.
	if _, err := repro.NewProblemFactoryParams("timetable", 3, map[string]int{"rooms": 1, "slots": 2, "teachers": 3}); !errors.Is(err, repro.ErrUnsatisfiable) {
		t.Fatalf("unsatisfiable parameter set not rejected by the factory: %v", err)
	}
	if _, err := repro.NewProblemWithParams("timetable", 20, map[string]int{"professors": 1}); !errors.Is(err, repro.ErrBadParams) {
		t.Fatalf("unknown parameter not rejected: %v", err)
	}
}

func TestFacadeModel(t *testing.T) {
	m := repro.NewModel(3, 1)
	m.AddLinearSum("s", []int{0, 1, 2}, nil, 6)
	c, err := m.Compile()
	if err != nil {
		t.Fatal(err)
	}
	res, err := repro.Solve(context.Background(), c, repro.DefaultOptions(3))
	if err != nil || !res.Solved {
		t.Fatalf("model solve failed: %v %v", res, err)
	}
}

func TestFacadeDefaultSizes(t *testing.T) {
	p, err := repro.NewProblem("langford", 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != 64 { // default n=32 values -> 64 items
		t.Fatalf("langford default size = %d", p.Size())
	}
}
