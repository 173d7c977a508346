package problems

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
)

// Hot-loop micro-benchmarks for the engine's two selection primitives
// on the paper's benchmarks. Worst-variable selection scans the live
// error vector; each benchmark iteration also executes a random swap
// through ExecutedSwap, so the vector's maintenance is charged to the
// selection honestly. (The names keep the ErrVec suffix they had when a
// per-variable Scan variant stood beside them.)

// randomSwap executes one random swap on the state, keeping the
// problem's incremental caches in sync — the engine's swap without the
// bookkeeping.
func randomSwap(st *core.State, p core.PermProblem, r *rng.Rand) {
	n := len(st.Cfg)
	i := r.Intn(n)
	j := r.Intn(n - 1)
	if j >= i {
		j++
	}
	c := p.CostIfSwap(st.Cfg, st.Cost, i, j)
	st.Cfg[i], st.Cfg[j] = st.Cfg[j], st.Cfg[i]
	p.ExecutedSwap(st.Cfg, i, j)
	st.Cost = c
	st.Iter++
}

// benchState builds the instance and a state over it.
func benchState(b *testing.B, name string, size int) (*core.State, core.PermProblem) {
	b.Helper()
	p, err := New(name, size)
	if err != nil {
		b.Fatal(err)
	}
	return core.NewState(p, core.Options{}, 1, nil), p.(core.PermProblem)
}

func benchmarkSelectWorstVariable(b *testing.B, name string, size int) {
	st, p := benchState(b, name, size)
	r := rng.New(7)
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		_ = st.SelectVariable()
		randomSwap(st, p, r)
	}
}

func benchmarkSelectBestSwap(b *testing.B, name string, size int) {
	st, p := benchState(b, name, size)
	r := rng.New(7)
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		_, _ = st.SelectMove(st.SelectVariable())
		randomSwap(st, p, r)
	}
}

func BenchmarkSelectWorstVariableMagicSquare10ErrVec(b *testing.B) {
	benchmarkSelectWorstVariable(b, "magic-square", 10)
}

func BenchmarkSelectWorstVariableCostas14ErrVec(b *testing.B) {
	benchmarkSelectWorstVariable(b, "costas", 14)
}

func BenchmarkSelectBestSwapMagicSquare10ErrVec(b *testing.B) {
	benchmarkSelectBestSwap(b, "magic-square", 10)
}

func BenchmarkSelectBestSwapCostas14ErrVec(b *testing.B) {
	benchmarkSelectBestSwap(b, "costas", 14)
}

// The Solve benchmarks measure the end-to-end iteration rate. The
// microbenchmarks above charge a swap to every selection; a real search
// also has freeze iterations (local minima that do not move), which the
// live vector serves for free, so the end-to-end rate is the honest
// number.
func BenchmarkSolveMagicSquare10ErrVec(b *testing.B) {
	benchmarkSolveIterRate(b, "magic-square", 10)
}

func BenchmarkSolveCostas14ErrVec(b *testing.B) {
	benchmarkSolveIterRate(b, "costas", 14)
}

func BenchmarkSolveAllInterval24ErrVec(b *testing.B) {
	benchmarkSolveIterRate(b, "all-interval", 24)
}

func benchmarkSolveIterRate(b *testing.B, name string, size int) {
	var iters int64
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		p, err := New(name, size)
		if err != nil {
			b.Fatal(err)
		}
		opts := core.TunedOptions(p)
		opts.Seed = uint64(k) + 1
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
			p := st.Problem.(core.PermProblem)
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
