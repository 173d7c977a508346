package problems

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/csp"
)

// recycleCase is one encoding the recycling test covers: a factory and
// a constructor of fresh instances of the same problem.
type recycleCase struct {
	name    string
	factory core.Factory
	fresh   func() (core.Problem, error)
}

// cspPermModel is a small permutation model compiled by package csp.
func cspPermModel() (core.Problem, error) {
	m := csp.NewModel(8, 1)
	m.AddLinearSum("front", []int{0, 1, 2, 3}, nil, 18)
	m.AddLinearSum("evens", []int{0, 2, 4, 6}, nil, 20)
	m.AddCustom("ends", []int{0, 7}, func(v []int) int { return abs(abs(v[0]-v[1]) - 3) })
	return m.Compile()
}

// cspFDModel is a small finite-domain model compiled by package csp.
func cspFDModel() (core.Problem, error) {
	m := csp.NewModel(6, 0)
	m.AddLinearSum("sum", []int{0, 1, 2, 3, 4, 5}, nil, 21)
	m.AddLinearSum("pair", []int{0, 5}, []int{2, -1}, 3)
	m.AddCustom("apart", []int{2, 3}, func(v []int) int { return max(0, 2-abs(v[0]-v[1])) })
	for i := 0; i < 6; i++ {
		m.SetDomainRange(i, 0, 7)
	}
	return m.CompileFD()
}

// TestRecycledInstanceSearchesAlike: an instance a walker hands back
// searches exactly as a fresh one, for every registered benchmark and
// both models package csp compiles. Seed A runs on an instance to the
// end of its budget, or is stopped mid-search; the instance is then
// recycled, and seed B on it must take the walk seed B takes on a
// fresh instance: every counter, the cost and the solution. This holds
// because every encoding's Cost rebuilds all the state its other
// methods read (core.Problem). Seed B on the recycled instance is also
// a search on an engine the pool handed back, so the engine's buffers
// are covered too.
func TestRecycledInstanceSearchesAlike(t *testing.T) {
	var cases []recycleCase
	for _, name := range Names() { // at their default sizes
		_, factory, err := Resolve(name, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, recycleCase{name, factory, func() (core.Problem, error) { return New(name, 0) }})
	}
	cases = append(cases,
		recycleCase{"csp.Compiled", core.FactoryFunc(cspPermModel), cspPermModel},
		recycleCase{"csp.CompiledFD", core.FactoryFunc(cspFDModel), cspFDModel},
	)
	// trace is one bounded search at seed with the problem's tuned
	// options, stopped at iteration stop when stop > 0: its whole Result
	// but the wall time.
	trace := func(t *testing.T, p core.Problem, seed uint64, stop int64) core.Result {
		t.Helper()
		opts := core.TunedOptions(p)
		opts.Seed, opts.MaxIterations, opts.MaxRuns, opts.CheckEvery = seed, 1500, 2, 4
		if stop > 0 {
			opts.Monitor = func(iter int64, _ int, _ []int) core.Directive { return core.Directive{Stop: iter >= stop} }
		}
		res, err := core.Solve(context.Background(), p, opts)
		if err != nil {
			t.Fatal(err)
		}
		res.Elapsed = 0
		return res
	}
	const seedA, seedB = 41, 97
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fresh, err := tc.fresh()
			if err != nil {
				t.Fatal(err)
			}
			want := trace(t, fresh, seedB, 0)
			for _, a := range []struct {
				how  string
				stop int64
			}{{"completed", 0}, {"stopped mid-search", 4}} {
				p, err := tc.factory.New()
				if err != nil {
					t.Fatal(err)
				}
				first := trace(t, p, seedA, a.stop)
				if a.stop > 0 && !first.Interrupted {
					t.Fatalf("seed %d was not stopped mid-search: %+v", seedA, first)
				}
				// p is what the spec's free list hands the next walker.
				tc.factory.Recycle(p)
				if got := trace(t, p, seedB, 0); !reflect.DeepEqual(got, want) {
					t.Errorf("seed %d after seed %d %s: the recycled instance searched\n%+v\na fresh one\n%+v", seedB, seedA, a.how, got, want)
				}
			}
		})
	}
}

// TestFirstWalkerSearchesTheProbe: a permutation spec keeps no model,
// so its first resolve builds an instance only to read the tuned
// options off it. That instance is the free list's first, and the
// spec's first walker searches on it: the first resolve and the first
// New together construct once. (costas-1024 is about 20 MiB, which
// solve used to construct twice a run.)
func TestFirstWalkerSearchesTheProbe(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector a sync.Pool drops a quarter of what it is handed, on purpose")
	}
	const size = 192
	least := func(fn func()) uint64 {
		bytes := ^uint64(0)
		for try := 0; try < 3; try++ {
			bytes = min(bytes, allocated(fn))
		}
		return bytes
	}
	construction := least(func() {
		if _, err := NewWithParams("costas", size, nil); err != nil {
			t.Fatal(err)
		}
	})
	first := least(func() {
		resetSpecCache()
		_, factory, err := Resolve("costas", size, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := factory.New(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("one construction of costas-%d is %d B; the first resolve and first walker together %d B", size, construction, first)
	if first >= construction+construction/2 {
		t.Errorf("the first resolve and the first walker of costas-%d allocate %d B, one construction is %d B: the walker built its own", size, first, construction)
	}
}
