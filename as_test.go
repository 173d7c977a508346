package repro

import (
	"context"
	"errors"
	"slices"
	"testing"
)

// TestFacadeSequential exercises the public API end to end: construct a
// benchmark, solve it, check the statistics.
func TestFacadeSequential(t *testing.T) {
	p, err := NewProblem("queens", 40)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(context.Background(), p, TunedOptions(p))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved || res.Cost != 0 {
		t.Fatalf("queens unsolved: %v", res)
	}
}

func TestFacadeParallel(t *testing.T) {
	f, err := NewProblemFactory("costas", 10)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := NewProblem("costas", 10)
	res, err := SolveParallel(context.Background(), f, MultiWalkOptions{
		Walkers: 3,
		Seed:    5,
		Engine:  TunedOptions(p),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("parallel costas unsolved: %+v", res)
	}
}

func TestFacadeVirtual(t *testing.T) {
	f, err := NewProblemFactory("costas", 9)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := NewProblem("costas", 9)
	res, err := SolveParallelVirtual(context.Background(), f, MultiWalkOptions{
		Walkers: 4,
		Seed:    2,
		Engine:  TunedOptions(p),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved || res.Winner < 0 {
		t.Fatalf("virtual run failed: %+v", res)
	}
}

func TestFacadeRegistry(t *testing.T) {
	names := Benchmarks()
	if len(names) != 9 {
		t.Fatalf("expected 9 benchmarks, got %v", names)
	}
	if !slices.Contains(names, "timetable") {
		t.Fatalf("finite-domain benchmark missing from registry: %v", names)
	}
	info, err := DescribeBenchmark("costas")
	if err != nil || info.PaperSize != 22 {
		t.Fatalf("costas info: %+v, %v", info, err)
	}
	if _, err := NewProblem("bogus", 1); err == nil {
		t.Fatal("bogus benchmark accepted")
	}
}

// TestFacadeFiniteDomain exercises the parameterized construction path:
// a solvable timetable instance solves through the plain facade Solve,
// an over-constrained parameter set is rejected by the pre-search
// domain reduction pass inside Solve, and unknown parameters fail
// construction with the typed bad-params error.
func TestFacadeFiniteDomain(t *testing.T) {
	p, err := NewProblemWithParams("timetable", 20, map[string]int{"slots": 6, "rooms": 4, "teachers": 4})
	if err != nil {
		t.Fatal(err)
	}
	opts := TunedOptions(p)
	opts.Seed = 7
	res, err := Solve(context.Background(), p, opts)
	if err != nil || !res.Solved {
		t.Fatalf("timetable solve failed: %+v %v", res, err)
	}
	if res.Assigns == 0 {
		t.Fatalf("finite-domain run executed no assign moves: %+v", res)
	}
	// Over-constrained parameters construct fine — unsatisfiability is
	// proven by the pre-search domain reduction pass inside Solve.
	unsat, err := NewProblemWithParams("timetable", 3, map[string]int{"rooms": 1, "slots": 2, "teachers": 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Solve(context.Background(), unsat, TunedOptions(unsat)); !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("unsatisfiable parameter set not rejected by reduction: %v", err)
	}
	// A factory reduces its template once, up front, so there the proof
	// is the constructor's error: no walker is ever started.
	if _, err := NewProblemFactoryParams("timetable", 3, map[string]int{"rooms": 1, "slots": 2, "teachers": 3}); !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("unsatisfiable parameter set not rejected by the factory: %v", err)
	}
	if _, err := NewProblemWithParams("timetable", 20, map[string]int{"professors": 1}); !errors.Is(err, ErrBadParams) {
		t.Fatalf("unknown parameter not rejected: %v", err)
	}
}

func TestFacadeModel(t *testing.T) {
	m := NewModel(3, 1)
	m.AddLinearSum("s", []int{0, 1, 2}, nil, 6)
	c, err := m.Compile()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(context.Background(), c, DefaultOptions(3))
	if err != nil || !res.Solved {
		t.Fatalf("model solve failed: %v %v", res, err)
	}
}

func TestFacadeDefaultSizes(t *testing.T) {
	p, err := NewProblem("langford", 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != 64 { // default n=32 values -> 64 items
		t.Fatalf("langford default size = %d", p.Size())
	}
}

func TestFacadeSolveService(t *testing.T) {
	svc := NewSolveService(ServiceConfig{Slots: 2})
	defer svc.Close()
	job, err := svc.SubmitWait(context.Background(), SolveRequest{Problem: "costas", Size: 8, Seed: 1, TimeoutMS: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	if job.State != JobState("solved") || job.Result == nil || !job.Result.Solved {
		t.Fatalf("service job: %+v", job)
	}
	if NewServiceHandler(svc) == nil {
		t.Fatal("nil HTTP handler")
	}
	if svc.Stats().JobsSolved != 1 {
		t.Fatalf("stats: %+v", svc.Stats())
	}
}
