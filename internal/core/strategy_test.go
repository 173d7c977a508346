package core

import (
	"context"
	"strings"
	"testing"
)

// TestStrategyDefaultMatchesAdaptiveName: the empty Strategy and its
// one legal name run the same search.
func TestStrategyDefaultMatchesAdaptiveName(t *testing.T) {
	a, err := Solve(context.Background(), sortProblem{25}, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(context.Background(), sortProblem{25}, Options{Seed: 5, Strategy: StrategyAdaptive})
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
		_, err := Solve(context.Background(), sortProblem{5}, Options{Strategy: name})
		if err == nil {
			t.Fatalf("strategy %q accepted", name)
		}
		if !strings.Contains(err.Error(), name) || !strings.Contains(err.Error(), StrategyAdaptive) {
			t.Fatalf("error does not name %q and %q: %v", name, StrategyAdaptive, err)
		}
	}
}

// TestStateErrorsNilWithoutFastPath: problems without ErrorVector must
// yield a nil error vector so selectors fall back to the scan.
func TestStateErrorsNilWithoutFastPath(t *testing.T) {
	var st State
	st.bindProblem(sortProblem{5}, 5)
	if st.Errors() != nil {
		t.Fatal("State.Errors non-nil for a problem without ErrorVector")
	}
}

// TestExhaustiveWithStrategyName: the pair scan runs whether Strategy
// is empty or names adaptive. On the sort problem it fixes at least one
// element per move, bounding iterations by n.
func TestExhaustiveWithStrategyName(t *testing.T) {
	for _, s := range []string{"", StrategyAdaptive} {
		res, err := Solve(context.Background(), sortProblem{10}, Options{
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

// TestSwapCostsMatchesPerCall: the State.SwapCosts helper must agree
// with per-call CostIfSwap on problems implementing MoveEvaluator and
// report nil on problems that do not.
func TestSwapCostsMatchesPerCall(t *testing.T) {
	if costs := NewState(sortProblem{6}, Options{}, 3, nil).SwapCosts(2); costs != nil {
		t.Fatalf("SwapCosts on a plain Problem = %v, want nil", costs)
	}
	p := bulkSortProblem{sortProblem{9}}
	s := NewState(p, Options{}, 3, nil)
	costs := s.SwapCosts(4)
	if costs == nil {
		t.Fatal("SwapCosts on a MoveEvaluator problem returned nil")
	}
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

// bulkSortProblem adds a MoveEvaluator view to sortProblem by looping
// over per-call CostIfSwap — the reference semantics of the interface.
type bulkSortProblem struct{ sortProblem }

func (b bulkSortProblem) CostsIfSwapAll(cfg []int, cost, i int, out []int) {
	for j := range cfg {
		if j == i {
			out[i] = cost
			continue
		}
		out[j] = b.CostIfSwap(cfg, cost, i, j)
	}
}
