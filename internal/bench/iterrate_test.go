package bench

import (
	"context"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/problems"
)

// unsolvable shifts a problem's global cost up by one, uniformly. Every
// cost comparison the engine makes is relative, so the search dynamics
// (and the hot path exercised: bulk move evaluation, delta error
// maintenance, resets) are identical to the real problem's — but cost 0
// is unreachable, so a bounded run executes its full iteration budget.
// The allocation assertions need that: a run that solves early would
// trivially report zero marginal allocations without covering the loop.
type unsolvable struct {
	p core.Problem
}

func (u unsolvable) Size() int                           { return u.p.Size() }
func (u unsolvable) Cost(cfg []int) int                  { return u.p.Cost(cfg) + 1 }
func (u unsolvable) CostOnVariable(cfg []int, i int) int { return u.p.CostOnVariable(cfg, i) }
func (u unsolvable) CostIfSwap(cfg []int, cost, i, j int) int {
	return u.p.CostIfSwap(cfg, cost-1, i, j) + 1
}

func (u unsolvable) ExecutedSwap(cfg []int, i, j int) {
	if sw, ok := u.p.(core.SwapExecutor); ok {
		sw.ExecutedSwap(cfg, i, j)
	}
}

// unsolvableFast additionally forwards the bulk-evaluation and
// delta-maintained-error fast paths, so the engine drives the wrapped
// problem through exactly the interfaces it would use on the real one.
type unsolvableFast struct {
	unsolvable
	me  core.MoveEvaluator
	mev core.MaintainedErrorVector
}

func (u unsolvableFast) CostsIfSwapAll(cfg []int, cost, i int, out []int) {
	u.me.CostsIfSwapAll(cfg, cost-1, i, out)
	for k := range out {
		out[k]++
	}
}

func (u unsolvableFast) LiveErrors(cfg []int) []int { return u.mev.LiveErrors(cfg) }

func (u unsolvableFast) ErrorsOnVariables(cfg []int, out []int) {
	u.mev.ErrorsOnVariables(cfg, out)
}

// unsolvableFD is the finite-domain counterpart: it forwards the FD
// encoding interfaces (domains, assign moves, batched assign rows) so
// the engine keeps running over assign moves — hiding FDProblem would
// silently demote the benchmark to swap moves, which feed
// out-of-domain values to its cost function.
type unsolvableFD struct {
	unsolvable
	fd  core.FDProblem
	ae  core.AssignEvaluator
	ax  core.AssignExecutor
	mev core.MaintainedErrorVector
}

func (u unsolvableFD) Domain(i int) []int { return u.fd.Domain(i) }

func (u unsolvableFD) CostIfAssign(cfg []int, cost, i, v int) int {
	return u.fd.CostIfAssign(cfg, cost-1, i, v) + 1
}

func (u unsolvableFD) CostsIfAssignAll(cfg []int, cost, i int, out []int) {
	u.ae.CostsIfAssignAll(cfg, cost-1, i, out)
	for k := range out {
		out[k]++
	}
}

func (u unsolvableFD) ExecutedAssign(cfg []int, i, old int) { u.ax.ExecutedAssign(cfg, i, old) }

func (u unsolvableFD) LiveErrors(cfg []int) []int { return u.mev.LiveErrors(cfg) }

func (u unsolvableFD) ErrorsOnVariables(cfg []int, out []int) {
	u.mev.ErrorsOnVariables(cfg, out)
}

// wrapUnsolvable picks the wrapper matching p's capabilities: the fast
// wrappers only advertise interfaces the wrapped problem actually
// implements, so a future benchmark without the fast paths exercises
// the engine's per-call fallback instead of panicking on a type
// assertion.
func wrapUnsolvable(p core.Problem) core.Problem {
	if fd, ok := p.(core.FDProblem); ok {
		ae, okA := p.(core.AssignEvaluator)
		ax, okX := p.(core.AssignExecutor)
		mev, okE := p.(core.MaintainedErrorVector)
		if okA && okX && okE {
			return unsolvableFD{unsolvable{p}, fd, ae, ax, mev}
		}
	}
	me, okM := p.(core.MoveEvaluator)
	mev, okE := p.(core.MaintainedErrorVector)
	if okM && okE {
		return unsolvableFast{unsolvable{p}, me, mev}
	}
	return unsolvable{p}
}

// TestHotLoopZeroAllocs pins the engine's allocation discipline: once a
// run is set up, iterating must allocate nothing — growing a run's
// iteration budget 10x may not grow its allocation count at all. Every
// benchmark is driven through its real tuned configuration (bulk move
// evaluation, delta-maintained errors, partial resets included); the
// cost-shifted unsolvable wrapper keeps the run from ending early.
func TestHotLoopZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is redundant under -short")
	}
	for _, name := range problems.Names() {
		t.Run(name, func(t *testing.T) {
			p, err := problems.New(name, 0)
			if err != nil {
				t.Fatal(err)
			}
			run := func(iters int64) float64 {
				return testing.AllocsPerRun(5, func() {
					opts := core.TunedOptions(p)
					opts.Seed = 12345
					opts.MaxIterations = iters
					opts.MaxRuns = 1
					res, err := core.Solve(context.Background(), wrapUnsolvable(p), opts)
					if err != nil {
						t.Fatal(err)
					}
					if res.Solved || res.Iterations != iters {
						t.Fatalf("unsolvable run ended early: %v", res)
					}
				})
			}
			short, long := run(2_000), run(20_000)
			if marginal := long - short; marginal > 0.5 {
				t.Errorf("18k extra iterations allocated %.1f extra objects (%.1f vs %.1f); the hot loop must not allocate",
					marginal, long, short)
			}
		})
	}
}

// TestCollectIterRates smoke-tests the measurement harness end to end
// at a tiny budget: every benchmark measured, rates positive, JSON
// round-trip and regression comparison wired.
func TestCollectIterRates(t *testing.T) {
	report, err := CollectIterRates(context.Background(), 2012, 2_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Results) != len(problems.Names()) {
		t.Fatalf("measured %d benchmarks, want %d", len(report.Results), len(problems.Names()))
	}
	for name, r := range report.Results {
		if r.Iterations < 2_000 || r.ItersPerSec <= 0 || r.Solves < 1 || r.AllocsPerSolve <= 0 {
			t.Errorf("%s: implausible measurement %+v", name, r)
		}
	}
	if report.NumCPU < 1 || report.GOMAXPROCS < 1 {
		t.Errorf("report does not record its host: num_cpu %d gomaxprocs %d", report.NumCPU, report.GOMAXPROCS)
	}
	path := t.TempDir() + "/rates.json"
	if err := report.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadIterRateReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Results) != len(report.Results) {
		t.Fatalf("round-trip lost results: %d vs %d", len(loaded.Results), len(report.Results))
	}
	if regs := CompareIterRates(report, loaded, 0.25); len(regs) != 0 {
		t.Fatalf("self-comparison reported regressions: %v", regs)
	}
	// A baseline 10x above the measurement must trip the gate.
	inflated := *loaded
	inflated.Results = map[string]IterRate{}
	for name, r := range loaded.Results {
		r.ItersPerSec *= 10
		inflated.Results[name] = r
	}
	regs := CompareIterRates(report, &inflated, 0.25)
	if len(regs) != len(report.Results) {
		t.Fatalf("inflated baseline tripped %d of %d regressions: %v", len(regs), len(report.Results), regs)
	}
	// The relative comparator cancels machine speed: a uniformly 10x
	// faster baseline is a clean pass (median-normalized), while one
	// benchmark singled out 10x above the rest trips exactly one
	// regression.
	if regs, median := CompareIterRatesRelative(report, &inflated, 0.25); len(regs) != 0 {
		t.Fatalf("uniformly scaled baseline tripped relative regressions (median %.2f): %v", median, regs)
	}
	skewed := *loaded
	skewed.Results = map[string]IterRate{}
	for name, r := range loaded.Results {
		if name == "costas" {
			r.ItersPerSec *= 10
		}
		skewed.Results[name] = r
	}
	if regs, _ := CompareIterRatesRelative(report, &skewed, 0.25); len(regs) != 1 || !strings.Contains(regs[0], "costas") {
		t.Fatalf("skewed baseline should trip exactly the costas relative regression, got %v", regs)
	}

	// A baseline from before solves, allocs_per_solve, num_cpu and
	// gomaxprocs existed still reads and still gates.
	old := t.TempDir() + "/old.json"
	oldBlob := `{"note":"n","go_version":"go1.24.0","results":{"costas":{"benchmark":"costas","size":14,` +
		`"iterations":300014,"seconds":1.36,"iters_per_sec":1,"allocs_per_iter":0.002}}}`
	if err := os.WriteFile(old, []byte(oldBlob), 0o644); err != nil {
		t.Fatal(err)
	}
	oldReport, err := ReadIterRateReport(old)
	if err != nil {
		t.Fatal(err)
	}
	if regs, _ := CompareIterRatesRelative(report, oldReport, 0.25); len(regs) != 0 {
		t.Fatalf("baseline without the new fields: %v", regs)
	}

	var md strings.Builder
	if err := report.RenderMarkdown(&md); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "| costas |") {
		t.Fatalf("markdown table missing costas row:\n%s", md.String())
	}
}

// BenchmarkIterationRate reports the engine's per-iteration cost for
// every benchmark at its default size (ns/op = one engine iteration;
// allocs/op must stay ~0). This is the `go test -bench` view of the
// numbers committed in BENCH_iter_rate.json.
func BenchmarkIterationRate(b *testing.B) {
	for _, name := range problems.Names() {
		b.Run(name, func(b *testing.B) {
			p, err := problems.New(name, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var total int64
			for seed := uint64(0); total < int64(b.N); seed++ {
				opts := core.TunedOptions(p)
				opts.Seed = 2012 + seed
				remaining := int64(b.N) - total
				opts.Monitor = func(iter int64, cost int, cfg []int) core.Directive {
					if iter >= remaining {
						return core.Directive{Stop: true}
					}
					return core.Directive{}
				}
				res, err := core.Solve(context.Background(), p, opts)
				if err != nil {
					b.Fatal(err)
				}
				total += res.Iterations
				if res.Iterations == 0 {
					b.Fatal("engine made no progress")
				}
			}
		})
	}
}
