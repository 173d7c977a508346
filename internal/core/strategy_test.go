package core

import (
	"context"
	"strings"
	"testing"
)

// TestStrategyDefaultMatchesAdaptiveName: the empty Strategy and its
// one legal name run the same search.
func TestStrategyDefaultMatchesAdaptiveName(t *testing.T) {
	a, err := Solve(context.Background(), asPerm(sortProblem{25}), Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(context.Background(), asPerm(sortProblem{25}), Options{Seed: 5, Strategy: StrategyAdaptive})
	if err != nil {
		t.Fatal(err)
	}
	if a.Iterations != b.Iterations || a.Swaps != b.Swaps || a.Resets != b.Resets {
		t.Fatalf("empty Strategy and %q diverge: %v vs %v", StrategyAdaptive, a, b)
	}
}

// TestStrategyUnknownRejected: Adaptive Search is the one algorithm, so
// any other name fails Validate, and the error names both the strategy
// asked for and the one there is.
func TestStrategyUnknownRejected(t *testing.T) {
	for _, name := range []string{"no-such-strategy", "metropolis"} {
		_, err := Solve(context.Background(), asPerm(sortProblem{5}), Options{Strategy: name})
		if err == nil {
			t.Fatalf("strategy %q accepted", name)
		}
		if !strings.Contains(err.Error(), name) || !strings.Contains(err.Error(), StrategyAdaptive) {
			t.Fatalf("error does not name %q and %q: %v", name, StrategyAdaptive, err)
		}
	}
}

// TestExhaustiveWithStrategyName: the pair scan runs whether Strategy
// is empty or names adaptive. On the sort problem it fixes at least one
// element per move, bounding iterations by n.
func TestExhaustiveWithStrategyName(t *testing.T) {
	for _, s := range []string{"", StrategyAdaptive} {
		res, err := Solve(context.Background(), asPerm(sortProblem{10}), Options{
			Seed:       1,
			Exhaustive: true,
			Strategy:   s,
		})
		if err != nil || !res.Solved {
			t.Fatalf("Exhaustive with strategy %q: %v %v", s, res, err)
		}
		if res.Iterations > 10 {
			t.Fatalf("Exhaustive with strategy %q took %d iterations, want <= 10", s, res.Iterations)
		}
	}
}

// TestSwapCostsMatchesPerCall: the State.SwapCosts helper fills the
// row of the variable asked for at the state's configuration and cost:
// per-call CostIfSwap for every partner, the current cost for itself.
func TestSwapCostsMatchesPerCall(t *testing.T) {
	p := asPerm(sortProblem{9})
	s := NewState(p, Options{}, 3, nil)
	costs := s.SwapCosts(4)
	for j := range costs {
		want := s.Cost
		if j != 4 {
			want = p.CostIfSwap(s.Cfg, s.Cost, 4, j)
		}
		if costs[j] != want {
			t.Fatalf("SwapCosts[%d] = %d, want %d", j, costs[j], want)
		}
	}
}
