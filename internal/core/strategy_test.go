package core

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// stubVariable wraps the default selector and counts invocations,
// proving the engine dispatches variable selection through the plug
// point.
type stubVariable struct {
	calls *atomic.Int64
	inner AdaptiveVariable
}

func (s stubVariable) SelectVariable(st *State) int {
	s.calls.Add(1)
	return s.inner.SelectVariable(st)
}

// stubMove wraps the default move selector and counts invocations.
type stubMove struct {
	calls *atomic.Int64
	inner MinConflictMove
}

func (s stubMove) SelectMove(st *State, i int) (int, int) {
	s.calls.Add(1)
	return s.inner.SelectMove(st, i)
}

// registerTestStrategies adds the strategies these tests resolve by
// name. The registry is process-wide and refuses a name twice, so under
// -count=N only the first run registers; the stub's counters are
// package-level for the same reason.
var (
	varCalls, moveCalls    atomic.Int64
	registerTestStrategies = sync.OnceFunc(func() {
		RegisterStrategy("test-stub", func() Strategy {
			return Strategy{
				Name:     "test-stub",
				Variable: stubVariable{calls: &varCalls},
				Move:     stubMove{calls: &moveCalls},
			}
		})
		RegisterStrategy("test-known", func() Strategy { return Strategy{} })
	})
)

func TestStrategyPlugPointsInvoked(t *testing.T) {
	registerTestStrategies()
	varCalls.Store(0)
	moveCalls.Store(0)
	res, err := Solve(context.Background(), sortProblem{20}, Options{Seed: 1, Strategy: "test-stub"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("stub strategy failed to solve: %v", res)
	}
	if res.Strategy != "test-stub" {
		t.Fatalf("Result.Strategy = %q, want test-stub", res.Strategy)
	}
	if varCalls.Load() != res.Iterations {
		t.Fatalf("VariableSelector called %d times over %d iterations", varCalls.Load(), res.Iterations)
	}
	if moveCalls.Load() != res.Iterations {
		t.Fatalf("MoveSelector called %d times over %d iterations", moveCalls.Load(), res.Iterations)
	}
}

func TestStrategyDefaultMatchesAdaptiveName(t *testing.T) {
	a, err := Solve(context.Background(), sortProblem{25}, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(context.Background(), sortProblem{25}, Options{Seed: 5, Strategy: StrategyAdaptive})
	if err != nil {
		t.Fatal(err)
	}
	if a.Strategy != StrategyAdaptive {
		t.Fatalf("default Result.Strategy = %q, want %q", a.Strategy, StrategyAdaptive)
	}
	if a.Iterations != b.Iterations || a.Swaps != b.Swaps || a.Resets != b.Resets {
		t.Fatalf("empty Strategy and %q diverge: %v vs %v", StrategyAdaptive, a, b)
	}
}

func TestStrategyUnknownRejected(t *testing.T) {
	_, err := Solve(context.Background(), sortProblem{5}, Options{Strategy: "no-such-strategy"})
	if err == nil {
		t.Fatal("unknown strategy accepted")
	}
	if !strings.Contains(err.Error(), "no-such-strategy") {
		t.Fatalf("error does not name the strategy: %v", err)
	}
}

func TestStrategyNamesContainBuiltins(t *testing.T) {
	names := StrategyNames()
	want := map[string]bool{StrategyAdaptive: false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Errorf("built-in strategy %q missing from StrategyNames: %v", n, names)
		}
	}
}

// TestKnownStrategy: the one registry lookup strategy names are
// validated with. "" is not a name — callers treat it as "use the
// default" before asking.
func TestKnownStrategy(t *testing.T) {
	registerTestStrategies()
	cases := []struct {
		name string
		want bool
	}{
		{StrategyAdaptive, true},
		{"test-known", true},
		{"", false},
		{"no-such-strategy", false},
	}
	for _, tc := range cases {
		if got := knownStrategy(tc.name); got != tc.want {
			t.Errorf("knownStrategy(%q) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestRegisterStrategyPanics: empty names, nil factories and duplicates
// must panic loudly rather than corrupt the registry.
func TestRegisterStrategyPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("empty name", func() { RegisterStrategy("", func() Strategy { return Strategy{} }) })
	mustPanic("nil factory", func() { RegisterStrategy("x-nil", nil) })
	mustPanic("duplicate", func() {
		RegisterStrategy(StrategyAdaptive, func() Strategy { return Strategy{} })
	})
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

// TestStrategyOverridesExhaustive: the exhaustive pair scan bypasses
// the strategy plug points, so an explicitly selected non-default
// strategy takes precedence — the run executes the named strategy (not
// a mislabeled pair scan), trace-identical to the same options without
// Exhaustive.
func TestStrategyOverridesExhaustive(t *testing.T) {
	registerTestStrategies()
	base := Options{Seed: 3, Strategy: "test-known"}
	want, err := Solve(context.Background(), sortProblem{30}, base)
	if err != nil {
		t.Fatal(err)
	}
	withEx := base
	withEx.Exhaustive = true
	got, err := Solve(context.Background(), sortProblem{30}, withEx)
	if err != nil {
		t.Fatal(err)
	}
	if got.Strategy != "test-known" {
		t.Fatalf("Result.Strategy = %q, want test-known", got.Strategy)
	}
	if got.Iterations != want.Iterations || got.Swaps != want.Swaps {
		t.Fatalf("Exhaustive not overridden by strategy: %v vs %v", got, want)
	}
	// The default strategy (named or empty) keeps exhaustive semantics:
	// on the sort problem the pair scan fixes at least one element per
	// move, bounding iterations by n.
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
