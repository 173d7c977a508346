package problems

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
)

// Hot-loop micro-benchmarks for the engine's two selection primitives
// on the paper's benchmarks, with and without the ErrorVector fast
// path. The "errvec" variants serve worst-variable selection from the
// incrementally maintained error cache; the "scan" variants hide the
// ErrorVector interface (via hideErrVec) and fall back to one
// CostOnVariable call per variable per selection, which is what every
// iteration paid before the cache existed. Each benchmark iteration
// also executes a random swap through ExecutedSwap so the cache's
// invalidation/update cost is charged to the fast path honestly.

// benchProblem builds the instance, optionally hiding ErrorVector.
func benchProblem(b *testing.B, name string, size int, hide bool) core.Problem {
	b.Helper()
	p, err := New(name, size)
	if err != nil {
		b.Fatal(err)
	}
	if hide {
		return hideErrVec{p}
	}
	return p
}

// randomSwap executes one random swap on the state, keeping the
// problem's incremental caches in sync — the engine's doSwap without
// the bookkeeping.
func randomSwap(st *core.State, p core.Problem, r *rng.Rand) {
	n := len(st.Cfg)
	i := r.Intn(n)
	j := r.Intn(n - 1)
	if j >= i {
		j++
	}
	c := p.CostIfSwap(st.Cfg, st.Cost, i, j)
	st.Cfg[i], st.Cfg[j] = st.Cfg[j], st.Cfg[i]
	if sw, ok := p.(core.SwapExecutor); ok {
		sw.ExecutedSwap(st.Cfg, i, j)
	}
	st.Cost = c
	st.Iter++
	st.InvalidateErrors()
}

func benchmarkSelectWorstVariable(b *testing.B, name string, size int, hide bool) {
	p := benchProblem(b, name, size, hide)
	st := core.NewState(p, core.Options{}, 1, nil)
	r := rng.New(7)
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		_ = st.SelectVariable()
		randomSwap(st, p, r)
	}
}

func benchmarkSelectBestSwap(b *testing.B, name string, size int, hide bool) {
	p := benchProblem(b, name, size, hide)
	st := core.NewState(p, core.Options{}, 1, nil)
	r := rng.New(7)
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		_, _ = st.SelectMove(st.SelectVariable())
		randomSwap(st, p, r)
	}
}

func BenchmarkSelectWorstVariableMagicSquare10Scan(b *testing.B) {
	benchmarkSelectWorstVariable(b, "magic-square", 10, true)
}

func BenchmarkSelectWorstVariableMagicSquare10ErrVec(b *testing.B) {
	benchmarkSelectWorstVariable(b, "magic-square", 10, false)
}

func BenchmarkSelectWorstVariableCostas14Scan(b *testing.B) {
	benchmarkSelectWorstVariable(b, "costas", 14, true)
}

func BenchmarkSelectWorstVariableCostas14ErrVec(b *testing.B) {
	benchmarkSelectWorstVariable(b, "costas", 14, false)
}

func BenchmarkSelectBestSwapMagicSquare10Scan(b *testing.B) {
	benchmarkSelectBestSwap(b, "magic-square", 10, true)
}

func BenchmarkSelectBestSwapMagicSquare10ErrVec(b *testing.B) {
	benchmarkSelectBestSwap(b, "magic-square", 10, false)
}

func BenchmarkSelectBestSwapCostas14Scan(b *testing.B) {
	benchmarkSelectBestSwap(b, "costas", 14, true)
}

func BenchmarkSelectBestSwapCostas14ErrVec(b *testing.B) {
	benchmarkSelectBestSwap(b, "costas", 14, false)
}

// The Solve benchmarks measure the end-to-end iteration rate with the
// fast path on vs off — the acceptance bar for the error cache. The
// microbenchmarks above charge a swap to every selection; a real search
// also has freeze iterations (local minima that do not move), which the
// cache serves for free, so the end-to-end delta is the honest number.
func BenchmarkSolveMagicSquare10ErrVec(b *testing.B) {
	benchmarkSolveIterRate(b, "magic-square", 10, false)
}

func BenchmarkSolveMagicSquare10Scan(b *testing.B) {
	benchmarkSolveIterRate(b, "magic-square", 10, true)
}

func BenchmarkSolveCostas14ErrVec(b *testing.B) {
	benchmarkSolveIterRate(b, "costas", 14, false)
}

func BenchmarkSolveCostas14Scan(b *testing.B) {
	benchmarkSolveIterRate(b, "costas", 14, true)
}

func BenchmarkSolveAllInterval24ErrVec(b *testing.B) {
	benchmarkSolveIterRate(b, "all-interval", 24, false)
}

func BenchmarkSolveAllInterval24Scan(b *testing.B) {
	benchmarkSolveIterRate(b, "all-interval", 24, true)
}

func benchmarkSolveIterRate(b *testing.B, name string, size int, hide bool) {
	var iters int64
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		raw, err := New(name, size)
		if err != nil {
			b.Fatal(err)
		}
		// Tune from the raw problem so both variants run identical
		// engine options (hideErrVec does not forward the Tuner hook).
		opts := core.TunedOptions(raw)
		opts.Seed = uint64(k) + 1
		p := raw
		if hide {
			p = hideErrVec{raw}
		}
		res, err := core.Solve(nil, p, opts) //nolint:staticcheck // nil ctx is part of the API
		if err != nil || !res.Solved {
			b.Fatalf("%v %v", res, err)
		}
		iters += res.Iterations
	}
	b.ReportMetric(float64(iters)/b.Elapsed().Seconds(), "iters/s")
}

// midSearchState returns a State over a fresh instance, positioned on
// the configuration the seed-1 solve of that instance holds halfway
// through, with every tenth variable tabu: the error vector, its ties
// and the share of frozen entries are those the selection kernels meet
// in a real search, not those of a random configuration.
func midSearchState(b *testing.B, name string, size int, params map[string]int) *core.State {
	b.Helper()
	solve := func(stopAt int64) (core.Result, []int) {
		p, err := NewWithParams(name, size, params)
		if err != nil {
			b.Fatal(err)
		}
		opts := core.TunedOptions(p)
		opts.Seed = 1
		opts.CheckEvery = 1
		var snap []int
		opts.Monitor = func(iter int64, _ int, cfg []int) core.Directive {
			if iter != stopAt {
				return core.Directive{}
			}
			snap = append([]int(nil), cfg...)
			return core.Directive{Stop: true}
		}
		res, err := core.Solve(nil, p, opts) //nolint:staticcheck // nil ctx is part of the API
		if err != nil {
			b.Fatal(err)
		}
		return res, snap
	}
	full, _ := solve(-1)
	_, cfg := solve(full.Iterations / 2)
	p, err := NewWithParams(name, size, params)
	if err != nil {
		b.Fatal(err)
	}
	st := core.NewState(p, core.TunedOptions(p), 1, cfg)
	for i := range st.Marks {
		if i%10 == 0 {
			st.Marks[i] = st.Iter
		}
	}
	return st
}

// BenchmarkSelectVariable times the worst-variable scan alone, on the
// instances whose jobs dominate the repository benchmark's two search
// workloads.
func BenchmarkSelectVariable(b *testing.B) {
	for _, tc := range []struct {
		name, problem string
		size          int
		params        map[string]int
	}{
		{"timetable-200", "timetable", 200, map[string]int{"slots": 8}},
		{"costas-15", "costas", 15, nil},
		{"magic-square-9", "magic-square", 9, nil},
	} {
		b.Run(tc.name, func(b *testing.B) {
			st := midSearchState(b, tc.problem, tc.size, tc.params)
			sink := 0
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				sink += st.SelectVariable()
			}
			benchSink = sink
		})
	}
}

// BenchmarkCostsIfSwapAll times one row fill on the instances the
// search-perm workload runs (the calls under two thirds of its
// samples), plus all-interval 10, which the two overhead workloads run.
func BenchmarkCostsIfSwapAll(b *testing.B) {
	for _, tc := range []struct {
		problem string
		size    int
	}{
		{"all-interval", 10},
		{"all-interval", 22},
		{"magic-square", 9},
		{"costas", 15},
		{"perfect-square", 9},
	} {
		b.Run(fmt.Sprintf("%s-%d", tc.problem, tc.size), func(b *testing.B) {
			st := midSearchState(b, tc.problem, tc.size, nil)
			p := st.Problem.(core.MoveEvaluator)
			n := len(st.Cfg)
			out := make([]int, n)
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				p.CostsIfSwapAll(st.Cfg, st.Cost, k%n, out)
			}
			benchSink = out[0]
		})
	}
}

// BenchmarkExecutedSwap times the cache maintenance of one executed
// swap (line sums and the live error vector) from the same state.
func BenchmarkExecutedSwap(b *testing.B) {
	b.Run("magic-square-9", func(b *testing.B) {
		st := midSearchState(b, "magic-square", 9, nil)
		p := st.Problem.(*MagicSquare)
		cfg, n := st.Cfg, len(st.Cfg)
		p.LiveErrors(cfg)
		var pairs [1024][2]int
		r := rng.New(7)
		for k := range pairs {
			i := r.Intn(n)
			j := r.Intn(n - 1)
			if j >= i {
				j++
			}
			pairs[k] = [2]int{i, j}
		}
		b.ResetTimer()
		for k := 0; k < b.N; k++ {
			i, j := pairs[k%len(pairs)][0], pairs[k%len(pairs)][1]
			cfg[i], cfg[j] = cfg[j], cfg[i]
			p.ExecutedSwap(cfg, i, j)
		}
		benchSink = p.LiveErrors(cfg)[0]
	})
}

// benchSink keeps the benchmarked calls' results live.
var benchSink int
