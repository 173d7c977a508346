package problems

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/csp"
	"repro/internal/rng"
)

// hotPathBuilders constructs one instance of every incremental encoding
// — all eight registered benchmarks plus a mixed linear/custom csp
// model — for the equivalence suites.
func hotPathBuilders(t *testing.T) map[string]func() core.PermProblem {
	t.Helper()
	builders := map[string]func() core.PermProblem{
		"magic-square":   func() core.PermProblem { p, _ := NewMagicSquare(5); return p },
		"costas":         func() core.PermProblem { p, _ := NewCostas(9); return p },
		"all-interval":   func() core.PermProblem { p, _ := NewAllInterval(12); return p },
		"queens":         func() core.PermProblem { p, _ := NewQueens(11); return p },
		"langford":       func() core.PermProblem { p, _ := NewLangford(8); return p },
		"partition":      func() core.PermProblem { p, _ := NewPartition(16); return p },
		"perfect-square": func() core.PermProblem { p, _ := NewPerfectSquare(7); return p },
		"alpha":          func() core.PermProblem { p, _ := NewAlpha(); return p },
		"csp-mixed": func() core.PermProblem {
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
		builders[fmt.Sprintf("costas-%d", n)] = func() core.PermProblem { p, _ := NewCostas(n); return p }
	}
	// All-interval where the row evaluator has no interior partner, a
	// border variable or only adjacent partners; magic squares with a
	// centre cell on both diagonals (odd sides) and with disjoint
	// diagonals (even sides), up to the benchmark's side 9.
	for n := 2; n <= 5; n++ {
		builders[fmt.Sprintf("all-interval-%d", n)] = func() core.PermProblem { p, _ := NewAllInterval(n); return p }
	}
	for _, n := range []int{1, 3, 4, 6, 9} {
		builders[fmt.Sprintf("magic-square-%d", n)] = func() core.PermProblem { p, _ := NewMagicSquare(n); return p }
	}
	return builders
}

// checkErrVecAgainstScan verifies the error-vector contract at the
// current configuration: LiveErrors must report exactly what a
// per-variable CostOnVariable scan reports.
func checkErrVecAgainstScan(t *testing.T, p core.PermProblem, cfg []int, step string) {
	t.Helper()
	live := p.LiveErrors(cfg)
	for i := 0; i < p.Size(); i++ {
		if want := p.CostOnVariable(cfg, i); live[i] != want {
			t.Fatalf("%s: LiveErrors[%d] = %d, CostOnVariable = %d (cfg %v)",
				step, i, live[i], want, cfg)
		}
	}
}

// checkBulkAgainstPerCall verifies the CostsIfSwapAll contract at the
// current configuration: CostsIfSwapAll must report exactly what n-1
// individual CostIfSwap calls report (and the stay-put entry the
// current cost), for every variable, without disturbing state: a row
// evaluator may borrow the encoding's caches (all-interval and costas
// take variable i out of their occurrence tables) but must hand back
// every cached field, and cfg, exactly as it found them.
func checkBulkAgainstPerCall(t *testing.T, p core.PermProblem, cfg []int, cost int, step string) {
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
func cacheSnapshot(p core.PermProblem) string {
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
func driveHotPath(t *testing.T, p core.PermProblem, steps int, check func(cfg []int, cost int, step string)) {
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
// variable at every step, so the batched row can never drift from
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

// TestEncodingContracts: every shipped encoding — each registered
// benchmark and both outputs of the csp compiler — implements the whole
// contract of its encoding, so core.Solve runs it on the one path there
// is.
func TestEncodingContracts(t *testing.T) {
	finite := map[string]bool{"timetable": true, "csp.CompiledFD": true}
	encodings := map[string]core.Problem{}
	for _, name := range Names() {
		p, err := New(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		encodings[name] = p
	}
	m := csp.NewModel(4, 1)
	m.AddLinearSum("sum", []int{0, 1, 2}, nil, 6)
	var err error
	if encodings["csp.Compiled"], err = m.Compile(); err != nil {
		t.Fatal(err)
	}
	if encodings["csp.CompiledFD"], err = m.CompileFD(); err != nil {
		t.Fatal(err)
	}
	for name, p := range encodings {
		_, isFD := p.(core.FDProblem)
		_, isPerm := p.(core.PermProblem)
		if finite[name] && !isFD {
			t.Errorf("%s (%T) does not implement core.FDProblem", name, p)
		}
		if !finite[name] && !isPerm {
			t.Errorf("%s (%T) does not implement core.PermProblem", name, p)
		}
	}
}
