package core

import (
	"context"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/perm"
)

// sortProblem is a toy CSP: the solution is the identity permutation.
// Cost counts misplaced variables. Its landscape is trivially funnel-
// shaped, so the engine must solve it quickly; the tests use it to
// exercise the engine mechanics in isolation from benchmark encodings.
type sortProblem struct{ n int }

func (s sortProblem) Size() int { return s.n }

func (s sortProblem) Cost(cfg []int) int {
	c := 0
	for i, v := range cfg {
		if v != i {
			c++
		}
	}
	return c
}

func (s sortProblem) CostOnVariable(cfg []int, i int) int {
	if cfg[i] != i {
		return 1
	}
	return 0
}

func (s sortProblem) CostIfSwap(cfg []int, cost, i, j int) int {
	before := b2i(cfg[i] != i) + b2i(cfg[j] != j)
	after := b2i(cfg[j] != i) + b2i(cfg[i] != j)
	return cost - before + after
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// stuckProblem has a constant positive cost: it can never be solved, and
// every swap looks cost-neutral (an endless plateau). Used to test
// budgets, restarts and cancellation.
type stuckProblem struct{ n int }

func (s stuckProblem) Size() int                           { return s.n }
func (s stuckProblem) Cost([]int) int                      { return 1 }
func (s stuckProblem) CostOnVariable([]int, int) int       { return 1 }
func (s stuckProblem) CostIfSwap([]int, int, int, int) int { return 1 }

// pitProblem is a strict local minimum everywhere: every swap is worse.
// Used to test the freeze/reset machinery, which only engages when no
// sideways move exists.
type pitProblem struct{ n int }

func (p pitProblem) Size() int                           { return p.n }
func (p pitProblem) Cost([]int) int                      { return 1 }
func (p pitProblem) CostOnVariable([]int, int) int       { return 1 }
func (p pitProblem) CostIfSwap([]int, int, int, int) int { return 2 }

// floorProblem has minimum cost 1 (cost = misplaced count + 1): tests
// that the best-seen cost is reported for unsolved runs.
type floorProblem struct{ sortProblem }

func (f floorProblem) Cost(cfg []int) int { return f.sortProblem.Cost(cfg) + 1 }
func (f floorProblem) CostIfSwap(cfg []int, cost, i, j int) int {
	return f.sortProblem.CostIfSwap(cfg, cost-1, i, j) + 1
}

// toy is what the toy problems above define: a problem's reference
// evaluations. asPerm and asFD complete one to an encoding's contract.
type toy interface {
	Size() int
	Cost(cfg []int) int
	CostOnVariable(cfg []int, i int) int
	CostIfSwap(cfg []int, cost, i, j int) int
}

// permOf completes a toy to the permutation contract from its
// references: the error vector and the swap row are recomputed on every
// call, so there is no incremental state for ExecutedSwap to update.
type permOf struct{ toy }

func (p permOf) LiveErrors(cfg []int) []int {
	errs := make([]int, len(cfg))
	for i := range errs {
		errs[i] = p.CostOnVariable(cfg, i)
	}
	return errs
}

func (p permOf) CostsIfSwapAll(cfg []int, cost, i int, out []int) {
	for j := range out {
		out[j] = p.CostIfSwap(cfg, cost, i, j)
	}
	out[i] = cost
}

func (permOf) ExecutedSwap([]int, int, int) {}

// hookedProblem wraps sortProblem and records engine hook invocations to
// verify the incremental-state contract.
type hookedProblem struct {
	permOf
	swaps      int
	lastSwapOK bool
}

func (h *hookedProblem) ExecutedSwap(cfg []int, i, j int) {
	h.swaps++
	// By contract cfg has already been swapped when the hook fires.
	h.lastSwapOK = perm.IsPermutation(cfg)
}

// tunedProblem verifies TunedOptions plumbing.
type tunedProblem struct{ permOf }

func (tunedProblem) Tune(o *Options) { o.FreezeLocMin = 42 }

// fdOf makes a finite-domain problem of one of the toy problems above:
// every variable ranges over [0, n), so a permutation is one of its
// configurations, and an assignment costs what Cost says of the changed
// configuration.
type fdOf struct {
	permOf
	dom []int
}

func (p fdOf) Domain(int) []int { return p.dom }

func (p fdOf) CostIfAssign(cfg []int, _, i, v int) int {
	old := cfg[i]
	cfg[i] = v
	c := p.Cost(cfg)
	cfg[i] = old
	return c
}

func (p fdOf) CostsIfAssignAll(cfg []int, cost, i int, out []int) {
	for k, v := range p.dom {
		out[k] = p.CostIfAssign(cfg, cost, i, v)
	}
}

func (fdOf) ExecutedAssign([]int, int, int) {}

func asPerm(p toy) Problem { return permOf{p} }
func asFD(p toy) Problem   { return fdOf{permOf{p}, perm.Identity(p.Size())} }

// bothEncodings runs a test of the engine loop once over swap moves and
// once over assign moves: enc turns a toy problem into the encoding the
// subtest is about.
func bothEncodings(t *testing.T, test func(t *testing.T, enc func(toy) Problem)) {
	t.Run("perm", func(t *testing.T) { test(t, asPerm) })
	t.Run("fd", func(t *testing.T) { test(t, asFD) })
}

// oneVar is a finite-domain problem of one variable over [0, len(p)):
// value v costs p[v].
type oneVar []int

func (p oneVar) Size() int                              { return 1 }
func (p oneVar) Cost(cfg []int) int                     { return p[cfg[0]] }
func (p oneVar) CostOnVariable(cfg []int, _ int) int    { return p[cfg[0]] }
func (p oneVar) CostIfSwap(_ []int, cost, _, _ int) int { return cost }
func (p oneVar) LiveErrors(cfg []int) []int             { return []int{p[cfg[0]]} }
func (p oneVar) Domain(int) []int                       { return perm.Identity(len(p)) }
func (p oneVar) CostIfAssign(_ []int, _, _, v int) int  { return p[v] }
func (p oneVar) CostsIfAssignAll(_ []int, _, _ int, out []int) {
	copy(out, p)
}
func (oneVar) ExecutedAssign([]int, int, int) {}

func TestSolveSortProblem(t *testing.T) {
	for _, n := range []int{2, 3, 5, 10, 50, 200} {
		res, err := Solve(context.Background(), asPerm(sortProblem{n}), Options{Seed: 1})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !res.Solved {
			t.Fatalf("n=%d: not solved: %v", n, res)
		}
		if res.Cost != 0 {
			t.Fatalf("n=%d: solved but cost=%d", n, res.Cost)
		}
		for i, v := range res.Solution {
			if v != i {
				t.Fatalf("n=%d: solution is not identity: %v", n, res.Solution)
			}
		}
	}
}

func TestSolveDeterministicForSeed(t *testing.T) {
	a, err := Solve(context.Background(), asPerm(sortProblem{30}), Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(context.Background(), asPerm(sortProblem{30}), Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a.Iterations != b.Iterations || a.Swaps != b.Swaps || a.Resets != b.Resets {
		t.Fatalf("same seed gave different traces: %v vs %v", a, b)
	}
}

func TestSolveSeedsDiffer(t *testing.T) {
	// Different seeds should (almost surely) take different trajectories
	// on a size-50 instance.
	a, _ := Solve(context.Background(), asPerm(sortProblem{50}), Options{Seed: 1})
	b, _ := Solve(context.Background(), asPerm(sortProblem{50}), Options{Seed: 2})
	if a.Iterations == b.Iterations && a.Swaps == b.Swaps {
		t.Skip("seeds coincided; astronomically unlikely but not an error")
	}
}

func TestInitialConfigSolution(t *testing.T) {
	n := 10
	res, err := Solve(context.Background(), asPerm(sortProblem{n}), Options{
		Seed:          3,
		InitialConfig: perm.Identity(n),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved || res.Iterations != 0 {
		t.Fatalf("starting at the solution should solve in 0 iterations: %v", res)
	}
}

func TestInitialConfigInvalid(t *testing.T) {
	_, err := Solve(context.Background(), asPerm(sortProblem{3}), Options{InitialConfig: []int{0, 0, 1}})
	if err == nil {
		t.Fatal("invalid InitialConfig accepted")
	}
	_, err = Solve(context.Background(), asPerm(sortProblem{3}), Options{InitialConfig: []int{0, 1}})
	if err == nil {
		t.Fatal("wrong-length InitialConfig accepted")
	}
}

func TestInvalidOptions(t *testing.T) {
	bad := []Options{
		{ProbSelectLocMin: -0.5},
		{ProbSelectLocMin: 1.5},
		{ResetFraction: 2},
		{ProbSelectLocMin: math.NaN()},
		{ResetFraction: math.NaN()},
		{MaxIterations: -1},
		{FreezeLocMin: -2},
		{MaxRuns: -1},
	}
	for i, o := range bad {
		if _, err := Solve(context.Background(), asPerm(sortProblem{5}), o); err == nil {
			t.Errorf("case %d: invalid options accepted: %+v", i, o)
		}
	}
}

func TestBudgetExhaustionAndRestarts(t *testing.T) {
	bothEncodings(t, func(t *testing.T, enc func(toy) Problem) {
		res, err := Solve(context.Background(), enc(stuckProblem{8}), Options{
			Seed:          1,
			MaxIterations: 50,
			MaxRuns:       4,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Solved {
			t.Fatal("stuckProblem cannot be solved")
		}
		if res.Restarts != 3 {
			t.Fatalf("Restarts = %d, want 3", res.Restarts)
		}
		if res.Iterations != 4*50 {
			t.Fatalf("Iterations = %d, want 200 (4 runs x 50)", res.Iterations)
		}
		if res.Cost != 1 {
			t.Fatalf("unsolved Cost = %d, want best-seen 1", res.Cost)
		}
		if res.Solution != nil {
			t.Fatal("unsolved result must not carry a solution")
		}
	})
}

func TestContextCancellation(t *testing.T) {
	bothEncodings(t, func(t *testing.T, enc func(toy) Problem) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // already cancelled: the run must not start at all
		res, err := Solve(ctx, enc(stuckProblem{8}), Options{Seed: 1, CheckEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Interrupted {
			t.Fatalf("cancelled context did not interrupt: %v", res)
		}
		if res.Iterations != 0 {
			t.Fatalf("pre-cancelled run took %d iterations, want 0", res.Iterations)
		}
	})
}

func TestContextTimeout(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := Solve(ctx, asPerm(stuckProblem{16}), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Fatal("timeout did not interrupt unlimited-restart run")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("run overshot its deadline grossly")
	}
}

func TestNilContext(t *testing.T) {
	res, err := Solve(nil, asPerm(sortProblem{5}), Options{Seed: 1}) //nolint:staticcheck // nil ctx is part of the API contract
	if err != nil || !res.Solved {
		t.Fatalf("nil context should behave as Background: %v %v", res, err)
	}
}

func TestHooksInvoked(t *testing.T) {
	h := &hookedProblem{permOf: permOf{sortProblem{40}}}
	res, err := Solve(context.Background(), h, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("not solved: %v", res)
	}
	if int64(h.swaps) != res.Swaps {
		t.Fatalf("ExecutedSwap fired %d times, engine reports %d swaps", h.swaps, res.Swaps)
	}
	if h.swaps > 0 && !h.lastSwapOK {
		t.Fatal("cfg was not a permutation inside ExecutedSwap")
	}
}

// TestDegenerateSizes: below the move set's smallest size there is one
// configuration and its cost is reported without a search. That size is
// 2 for a permutation and 1 for finite domains, where a single variable
// still ranges over its domain.
func TestDegenerateSizes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		p      Problem
		solved bool
	}{
		{"perm n=0", asPerm(sortProblem{0}), true},
		{"perm n=1", asPerm(sortProblem{1}), true},
		{"perm n=1 unsolvable", asPerm(stuckProblem{1}), false},
		{"fd n=0", asFD(sortProblem{0}), true},
		{"fd n=0 unsolvable", asFD(stuckProblem{0}), false},
	} {
		res, err := Solve(context.Background(), tc.p, Options{})
		if err != nil || res.Solved != tc.solved || res.Iterations != 0 {
			t.Errorf("%s: %v %v, want solved=%v without searching", tc.name, res, err, tc.solved)
		}
		if !tc.solved && res.Cost != 1 {
			t.Errorf("%s: Cost = %d, want 1", tc.name, res.Cost)
		}
	}

	// One finite-domain variable is searched: from value 0 the only
	// zero-cost value is one assignment away.
	res, err := Solve(context.Background(), oneVar{3, 2, 1, 0, 1}, Options{InitialConfig: []int{0}})
	if err != nil || !res.Solved || res.Iterations != 1 || res.Assigns != 1 || res.Solution[0] != 3 {
		t.Fatalf("fd n=1: %v %v, want value 3 after one assignment", res, err)
	}

	// At a strict local minimum of one variable the restart policy, which
	// reasons about a second variable, is not consulted: every local
	// minimum is escaped by re-drawing the variable.
	res, err = Solve(context.Background(), oneVar{1, 2, 2}, Options{
		Seed: 1, InitialConfig: []int{0}, MaxIterations: 60, MaxRuns: 1,
	})
	if err != nil || res.Solved || res.Cost != 1 || res.Iterations != 60 {
		t.Fatalf("fd n=1 local minimum: %v %v, want 60 iterations ending unsolved at cost 1", res, err)
	}
	if res.LocalMinima == 0 || res.PlateauEscapes != res.LocalMinima || res.Resets != 0 {
		t.Fatalf("fd n=1 local minimum: %d local minima, %d escapes, %d resets; want every minimum escaped, no reset",
			res.LocalMinima, res.PlateauEscapes, res.Resets)
	}
}

// TestValidateConfig: the one answer to "is cfg a configuration of p",
// for both encodings.
func TestValidateConfig(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    Problem
		cfg  []int
		ok   bool
	}{
		{"perm", asPerm(sortProblem{4}), []int{2, 0, 3, 1}, true},
		{"perm wrong length", asPerm(sortProblem{4}), []int{0, 1, 2}, false},
		{"perm repeated value", asPerm(sortProblem{4}), []int{0, 1, 1, 3}, false},
		{"perm value out of range", asPerm(sortProblem{4}), []int{0, 1, 2, 4}, false},
		{"fd", asFD(sortProblem{4}), []int{1, 1, 0, 3}, true},
		{"fd wrong length", asFD(sortProblem{4}), []int{0, 1, 2, 3, 0}, false},
		{"fd out of domain", asFD(sortProblem{4}), []int{0, 1, 2, 4}, false},
		{"fd below domain", oneVar{0, 1}, []int{-1}, false},
		{"empty", asPerm(sortProblem{0}), nil, true},
	} {
		if err := ValidateConfig(tc.p, tc.cfg); (err == nil) != tc.ok {
			t.Errorf("%s: ValidateConfig(%v) = %v, want ok=%v", tc.name, tc.cfg, err, tc.ok)
		}
	}
}

// TestSolveRefusesIncompleteContract: a problem one method short of its
// encoding's contract is refused before any search, on each encoding.
// A finite-domain problem is not run over permutations either when it
// happens to hold the whole permutation contract.
func TestSolveRefusesIncompleteContract(t *testing.T) {
	type (
		swapRow interface {
			CostsIfSwapAll(cfg []int, cost, i int, out []int)
		}
		swapExec  interface{ ExecutedSwap(cfg []int, i, j int) }
		assignRow interface {
			CostsIfAssignAll(cfg []int, cost, i int, out []int)
		}
		assignExec interface{ ExecutedAssign(cfg []int, i, old int) }
		domains    interface {
			Domain(i int) []int
			CostIfAssign(cfg []int, cost, i, v int) int
		}
	)
	p := asPerm(sortProblem{6}).(permOf)
	f := asFD(sortProblem{6}).(fdOf)
	for _, tc := range []struct {
		name string
		p    Problem
		ok   bool
	}{
		{"perm", p, true},
		{"perm without ExecutedSwap", struct {
			Problem
			swapRow
		}{p, p}, false},
		{"perm without CostsIfSwapAll", struct {
			Problem
			swapExec
		}{p, p}, false},
		{"fd", f, true},
		{"fd without ExecutedAssign", struct {
			PermProblem
			domains
			assignRow
		}{f, f, f}, false},
		{"fd without CostsIfAssignAll", struct {
			PermProblem
			domains
			assignExec
		}{f, f, f}, false},
	} {
		res, err := Solve(context.Background(), tc.p, Options{Seed: 1})
		if tc.ok != (err == nil) || tc.ok != res.Solved {
			t.Errorf("%s: Solve = %v, %v; want accepted and solved = %v", tc.name, res, err, tc.ok)
		}
		if !tc.ok && (res.Iterations != 0 || !strings.Contains(err.Error(), "FDProblem")) {
			t.Errorf("%s: refused after %d iterations with %v, want no search and an error naming the contract", tc.name, res.Iterations, err)
		}
	}
}

func TestTunedOptions(t *testing.T) {
	o := TunedOptions(tunedProblem{permOf{sortProblem{10}}})
	if o.FreezeLocMin != 42 {
		t.Fatalf("Tune not applied: FreezeLocMin = %d", o.FreezeLocMin)
	}
	if o.MaxIterations == 0 {
		t.Fatal("defaults not applied before Tune")
	}
	// A problem without Tune gets plain defaults.
	o2 := TunedOptions(asPerm(sortProblem{10}))
	if o2.FreezeLocMin != 5 {
		t.Fatalf("default FreezeLocMin = %d, want 5", o2.FreezeLocMin)
	}
}

func TestFirstBestStillSolves(t *testing.T) {
	res, err := Solve(context.Background(), asPerm(sortProblem{60}), Options{Seed: 9, FirstBest: true})
	if err != nil || !res.Solved {
		t.Fatalf("FirstBest run failed: %v %v", res, err)
	}
}

func TestProbSelectLocMinEscapes(t *testing.T) {
	// On the floor problem every iteration is a local minimum once the
	// permutation is sorted; with ProbSelectLocMin = 1 the engine must
	// take forced moves instead of freezing, so PlateauEscapes > 0 and
	// Resets == 0.
	res, err := Solve(context.Background(), asPerm(floorProblem{sortProblem{12}}), Options{
		Seed:             4,
		MaxIterations:    300,
		MaxRuns:          1,
		ProbSelectLocMin: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PlateauEscapes == 0 {
		t.Fatalf("no plateau escapes with ProbSelectLocMin=1: %v", res)
	}
	if res.Resets != 0 {
		t.Fatalf("resets happened despite ProbSelectLocMin=1: %v", res)
	}
}

func TestUnsolvedReportsBestSeenCost(t *testing.T) {
	res, err := Solve(context.Background(), asPerm(floorProblem{sortProblem{10}}), Options{
		Seed:          6,
		MaxIterations: 2_000,
		MaxRuns:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Solved {
		t.Fatal("floorProblem cannot reach cost 0")
	}
	if res.Cost != 1 {
		t.Fatalf("best-seen cost = %d, want 1 (the floor)", res.Cost)
	}
}

func TestResultString(t *testing.T) {
	res, _ := Solve(context.Background(), asPerm(sortProblem{5}), Options{Seed: 1})
	s := res.String()
	if s == "" {
		t.Fatal("empty Result.String()")
	}
}

func TestSolvePropertySolvesAnySeed(t *testing.T) {
	f := func(seed uint64) bool {
		res, err := Solve(context.Background(), asPerm(sortProblem{12}), Options{Seed: seed})
		return err == nil && res.Solved && perm.IsPermutation(res.Solution)
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSolutionIsPrivateCopy(t *testing.T) {
	res, _ := Solve(context.Background(), asPerm(sortProblem{8}), Options{Seed: 1})
	res.Solution[0] = 99
	res2, _ := Solve(context.Background(), asPerm(sortProblem{8}), Options{Seed: 1})
	if res2.Solution[0] == 99 {
		t.Fatal("Solution aliases engine state across calls")
	}
}

func BenchmarkSolveSort100(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := Solve(context.Background(), asPerm(sortProblem{100}), Options{Seed: uint64(i)})
		if err != nil || !res.Solved {
			b.Fatalf("%v %v", res, err)
		}
	}
}
