package problems

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/csp"
	"repro/internal/rng"
)

// errVecProblem is the intersection the hot-path consistency tests
// exercise: the full engine contract plus the delta-maintained error
// vector and the batched move evaluator.
type errVecProblem interface {
	core.Problem
	core.SwapExecutor
	core.MaintainedErrorVector
	core.MoveEvaluator
}

// hotPathBuilders constructs one instance of every incremental encoding
// — all eight registered benchmarks plus a mixed linear/custom csp
// model — for the equivalence suites.
func hotPathBuilders(t *testing.T) map[string]func() errVecProblem {
	t.Helper()
	builders := map[string]func() errVecProblem{
		"magic-square":   func() errVecProblem { p, _ := NewMagicSquare(5); return p },
		"costas":         func() errVecProblem { p, _ := NewCostas(9); return p },
		"all-interval":   func() errVecProblem { p, _ := NewAllInterval(12); return p },
		"queens":         func() errVecProblem { p, _ := NewQueens(11); return p },
		"langford":       func() errVecProblem { p, _ := NewLangford(8); return p },
		"partition":      func() errVecProblem { p, _ := NewPartition(16); return p },
		"perfect-square": func() errVecProblem { p, _ := NewPerfectSquare(7); return p },
		"alpha":          func() errVecProblem { p, _ := NewAlpha(); return p },
		"csp-mixed": func() errVecProblem {
			// A model mixing weighted linear sums (with a repeated
			// variable) and a custom constraint, covering the compiler's
			// cached-sum fast path and its fn fallback side by side.
			m := csp.NewModel(8, 1)
			m.AddLinearSum("lin", []int{0, 1, 2, 1}, nil, 12)
			m.AddLinearSum("coef", []int{2, 3, 4}, []int{2, -1, 3}, 9)
			m.AddWeighted("spread", []int{5, 6, 7}, 2, func(vals []int) int {
				d := vals[0] - vals[2]
				if d < 0 {
					d = -d
				}
				if d > 3 {
					return d - 3
				}
				return 0
			})
			p, err := m.Compile()
			if err != nil {
				t.Fatalf("csp-mixed: %v", err)
			}
			return p
		},
	}
	// The smallest Costas orders: no pair at all, a single row, a column
	// with no left or no right neighbour — the edges of the flat
	// (distance, difference) indexing.
	for n := 1; n <= 4; n++ {
		builders[fmt.Sprintf("costas-%d", n)] = func() errVecProblem { p, _ := NewCostas(n); return p }
	}
	// All-interval where the row evaluator has no interior partner, a
	// border variable or only adjacent partners; magic squares with a
	// centre cell on both diagonals (odd sides) and with disjoint
	// diagonals (even sides), up to the benchmark's side 9.
	for n := 2; n <= 5; n++ {
		builders[fmt.Sprintf("all-interval-%d", n)] = func() errVecProblem { p, _ := NewAllInterval(n); return p }
	}
	for _, n := range []int{1, 3, 4, 6, 9} {
		builders[fmt.Sprintf("magic-square-%d", n)] = func() errVecProblem { p, _ := NewMagicSquare(n); return p }
	}
	return builders
}

// checkErrVecAgainstScan verifies the error-vector contract at the
// current configuration: both ErrorsOnVariables and LiveErrors must
// report exactly what a per-variable CostOnVariable scan reports.
func checkErrVecAgainstScan(t *testing.T, p errVecProblem, cfg []int, step string) {
	t.Helper()
	n := p.Size()
	out := make([]int, n)
	p.ErrorsOnVariables(cfg, out)
	live := p.LiveErrors(cfg)
	for i := 0; i < n; i++ {
		want := p.CostOnVariable(cfg, i)
		if out[i] != want {
			t.Fatalf("%s: ErrorsOnVariables[%d] = %d, CostOnVariable = %d (cfg %v)",
				step, i, out[i], want, cfg)
		}
		if live[i] != want {
			t.Fatalf("%s: LiveErrors[%d] = %d, CostOnVariable = %d (cfg %v)",
				step, i, live[i], want, cfg)
		}
	}
}

// checkBulkAgainstPerCall verifies the MoveEvaluator contract at the
// current configuration: CostsIfSwapAll must report exactly what n-1
// individual CostIfSwap calls report (and the stay-put entry the
// current cost), for every variable, without disturbing state: a row
// evaluator may borrow the encoding's caches (all-interval and costas
// take variable i out of their occurrence tables) but must hand back
// every cached field, and cfg, exactly as it found them.
func checkBulkAgainstPerCall(t *testing.T, p errVecProblem, cfg []int, cost int, step string) {
	t.Helper()
	n := p.Size()
	out := make([]int, n)
	cfgBefore := append([]int(nil), cfg...)
	for i := 0; i < n; i++ {
		before := cacheSnapshot(p)
		p.CostsIfSwapAll(cfg, cost, i, out)
		if after := cacheSnapshot(p); after != before {
			t.Fatalf("%s: CostsIfSwapAll(%d) left the caches changed:\nbefore %s\nafter  %s", step, i, before, after)
		}
		if !slices.Equal(cfg, cfgBefore) {
			t.Fatalf("%s: CostsIfSwapAll(%d) left cfg %v, was %v", step, i, cfg, cfgBefore)
		}
		if out[i] != cost {
			t.Fatalf("%s: CostsIfSwapAll(%d) stay-put entry = %d, want current cost %d", step, i, out[i], cost)
		}
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			if want := p.CostIfSwap(cfg, cost, i, j); out[j] != want {
				t.Fatalf("%s: CostsIfSwapAll(%d)[%d] = %d, CostIfSwap = %d (cfg %v)",
					step, i, j, out[j], want, cfg)
			}
		}
	}
}

// cacheSnapshot renders every field of the encoding, cached slices
// included, for a before/after comparison — for the encodings whose
// fields are all search state. (perfect-square and the csp compiler
// keep scratch buffers and generation stamps a row fill may move.)
func cacheSnapshot(p errVecProblem) string {
	switch p.(type) {
	case *AllInterval, *MagicSquare, *Costas, *Queens:
		return fmt.Sprintf("%+v", p)
	}
	return ""
}

// driveHotPath walks a problem through the engine's exact mutation
// pattern — Cost at run start, random swaps through ExecutedSwap,
// repeated queries, periodic full rebuilds — invoking check at every
// step.
func driveHotPath(t *testing.T, p errVecProblem, steps int, check func(cfg []int, cost int, step string)) {
	t.Helper()
	n := p.Size()
	r := rng.New(2012)
	cfg := r.Perm(n)
	cost := p.Cost(cfg)
	check(cfg, cost, "initial")
	if n < 2 {
		return // no swap to make
	}
	for step := 0; step < steps; step++ {
		i := r.Intn(n)
		j := r.Intn(n - 1)
		if j >= i {
			j++
		}
		cost = p.CostIfSwap(cfg, cost, i, j)
		cfg[i], cfg[j] = cfg[j], cfg[i]
		p.ExecutedSwap(cfg, i, j)
		check(cfg, cost, "after swap")
		// Interleave repeated queries (a frozen iteration) and
		// periodic full rebuilds (a partial reset).
		check(cfg, cost, "repeat query")
		if step%37 == 0 {
			if rebuilt := p.Cost(cfg); rebuilt != cost {
				t.Fatalf("step %d: incremental cost %d != rebuilt cost %d", step, cost, rebuilt)
			}
			check(cfg, cost, "after Cost rebuild")
		}
	}
}

// TestErrorVectorConsistency drives each incremental encoding through a
// random walk of swaps (mirroring the engine's Cost / ExecutedSwap
// call pattern, including occasional full Cost rebuilds) and checks the
// delta-maintained error vector against the per-variable scan at every
// step.
func TestErrorVectorConsistency(t *testing.T) {
	for name, build := range hotPathBuilders(t) {
		t.Run(name, func(t *testing.T) {
			p := build()
			driveHotPath(t, p, 200, func(cfg []int, cost int, step string) {
				checkErrVecAgainstScan(t, p, cfg, step)
			})
		})
	}
}

// TestMoveEvaluatorConsistency drives the same walk and checks the
// batched CostsIfSwapAll row against per-call CostIfSwap for every
// variable at every step, so the bulk fast path can never drift from
// the reference — and, via the incremental-vs-rebuilt cost assertion in
// the driver, that neither evaluator corrupts cached state.
func TestMoveEvaluatorConsistency(t *testing.T) {
	for name, build := range hotPathBuilders(t) {
		t.Run(name, func(t *testing.T) {
			p := build()
			driveHotPath(t, p, 60, func(cfg []int, cost int, step string) {
				checkBulkAgainstPerCall(t, p, cfg, cost, step)
			})
		})
	}
}

// TestErrorVectorSolveTraceUnchanged pins the fast path to the slow
// path end to end: hiding the ErrorVector interface from the engine
// must not change the search trace for a fixed seed.
func TestErrorVectorSolveTraceUnchanged(t *testing.T) {
	cases := []struct {
		name string
		size int
	}{
		{"magic-square", 5},
		{"costas", 10},
		{"all-interval", 14},
		{"queens", 10},
		{"langford", 8},
		{"partition", 16},
		{"perfect-square", 7},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fast, err := New(tc.name, tc.size)
			if err != nil {
				t.Fatal(err)
			}
			slowBase, err := New(tc.name, tc.size)
			if err != nil {
				t.Fatal(err)
			}
			opts := core.TunedOptions(fast)
			opts.Seed = 77
			a, err := core.Solve(context.Background(), fast, opts)
			if err != nil {
				t.Fatal(err)
			}
			b, err := core.Solve(context.Background(), hideErrVec{slowBase}, opts)
			if err != nil {
				t.Fatal(err)
			}
			if a.Iterations != b.Iterations || a.Swaps != b.Swaps ||
				a.LocalMinima != b.LocalMinima || a.Resets != b.Resets {
				t.Fatalf("fast path changed the trace:\nfast: %v\nslow: %v", a, b)
			}
		})
	}
}

// hideErrVec forwards the engine contract but hides ErrorVector,
// forcing the per-variable CostOnVariable path.
type hideErrVec struct{ p core.Problem }

func (h hideErrVec) Size() int                             { return h.p.Size() }
func (h hideErrVec) Cost(cfg []int) int                    { return h.p.Cost(cfg) }
func (h hideErrVec) CostOnVariable(cfg []int, i int) int   { return h.p.CostOnVariable(cfg, i) }
func (h hideErrVec) CostIfSwap(cfg []int, c, i, j int) int { return h.p.CostIfSwap(cfg, c, i, j) }
func (h hideErrVec) ExecutedSwap(cfg []int, i, j int) {
	if sw, ok := h.p.(core.SwapExecutor); ok {
		sw.ExecutedSwap(cfg, i, j)
	}
}
