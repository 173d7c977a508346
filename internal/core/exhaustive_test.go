package core

import (
	"context"
	"testing"
)

// TestExhaustiveSolves: the pair-scan mode must solve the toy problem
// like the worst-variable mode does.
func TestExhaustiveSolves(t *testing.T) {
	res, err := Solve(context.Background(), asPerm(sortProblem{30}), Options{Seed: 1, Exhaustive: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("exhaustive mode failed: %v", res)
	}
}

// TestExhaustiveFewerIterations: on the sort problem the exhaustive
// scan fixes at least one misplaced element per move, so it needs at
// most as many iterations as elements (a structural property, not a
// statistical one).
func TestExhaustiveFewerIterations(t *testing.T) {
	n := 40
	res, err := Solve(context.Background(), asPerm(sortProblem{n}), Options{Seed: 9, Exhaustive: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("unsolved: %v", res)
	}
	if res.Iterations > int64(n) {
		t.Fatalf("exhaustive took %d iterations on sort-%d, want <= %d", res.Iterations, n, n)
	}
}

// TestExhaustiveLocalMinimum: on pitProblem every pair is worse, so the
// engine must count local minima and reset rather than move.
func TestExhaustiveLocalMinimum(t *testing.T) {
	res, err := Solve(context.Background(), asPerm(pitProblem{8}), Options{
		Seed:          2,
		Exhaustive:    true,
		MaxIterations: 100,
		MaxRuns:       1,
		ResetLimit:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Solved {
		t.Fatal("pitProblem cannot be solved")
	}
	if res.LocalMinima != 100 {
		t.Fatalf("LocalMinima = %d, want 100 (every iteration)", res.LocalMinima)
	}
	if res.Resets == 0 {
		t.Fatal("no resets despite constant local minima")
	}
	if res.Swaps != 0 {
		t.Fatalf("engine executed %d strictly-worse swaps", res.Swaps)
	}
}

// TestExhaustiveProbEscape: with ProbSelectLocMin = 1, every local
// minimum is escaped by a forced random move, never by freezing.
// (pitProblem's CostIfSwap is deliberately inconsistent with Cost, so
// after the first uphill escape the engine sees plateaus — the
// invariant is escapes == local minima and no resets, not a fixed
// escape count.)
func TestExhaustiveProbEscape(t *testing.T) {
	res, err := Solve(context.Background(), asPerm(pitProblem{8}), Options{
		Seed:             3,
		Exhaustive:       true,
		MaxIterations:    50,
		MaxRuns:          1,
		ProbSelectLocMin: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PlateauEscapes == 0 {
		t.Fatalf("no plateau escapes: %v", res)
	}
	if res.PlateauEscapes != res.LocalMinima {
		t.Fatalf("escapes %d != local minima %d with ProbSelectLocMin=1", res.PlateauEscapes, res.LocalMinima)
	}
	if res.Resets != 0 {
		t.Fatalf("resets fired despite forced escapes: %v", res)
	}
}

// TestExhaustiveFirstBest: first-best short-circuiting must still solve.
func TestExhaustiveFirstBest(t *testing.T) {
	res, err := Solve(context.Background(), asPerm(sortProblem{25}), Options{
		Seed:       4,
		Exhaustive: true,
		FirstBest:  true,
	})
	if err != nil || !res.Solved {
		t.Fatalf("exhaustive first-best failed: %v %v", res, err)
	}
}

// TestExhaustiveDeterministic: same seed, same trace.
func TestExhaustiveDeterministic(t *testing.T) {
	opts := Options{Seed: 11, Exhaustive: true}
	a, err := Solve(context.Background(), asPerm(sortProblem{20}), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(context.Background(), asPerm(sortProblem{20}), opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Iterations != b.Iterations || a.Swaps != b.Swaps {
		t.Fatalf("exhaustive mode not deterministic: %v vs %v", a, b)
	}
}
