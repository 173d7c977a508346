package problems

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/domain"
)

// templateSpecs are the timetables the repository benchmark sends: the
// four of search-fd and the one small-local and fleet-mixed share.
var templateSpecs = []struct {
	size   int
	params map[string]int
}{
	{200, map[string]int{"slots": 8}},
	{160, map[string]int{"slots": 8}},
	{100, map[string]int{"slots": 10}},
	{240, map[string]int{"slots": 8}},
	{20, map[string]int{"slots": 6, "rooms": 4, "teachers": 4}},
}

// domainsOf deep-copies p's current domains.
func domainsOf(p core.FDProblem) [][]int {
	out := make([][]int, p.Size())
	for i := range out {
		out[i] = append([]int(nil), p.Domain(i)...)
	}
	return out
}

// traceOn is one bounded seeded search on p: the whole Result but its
// wall time.
func traceOn(t *testing.T, p core.Problem, seed uint64) core.Result {
	t.Helper()
	opts := core.TunedOptions(p)
	opts.Seed = seed
	opts.MaxIterations = 800
	opts.MaxRuns = 2
	res, err := core.Solve(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	res.Elapsed = 0
	return res
}

// TestTemplateInstancesSearchAlike is the rule Resolve states, run:
// every instance a spec's factory hands out is a clone of the cached
// model, never the model itself, and no clone can be told from a
// freshly built and reduced instance by any search — same trace for
// every seed, whether it is the first clone or one taken after others
// searched — while the domains all of them share stay what the one
// reduction left.
func TestTemplateInstancesSearchAlike(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 3
	}
	for _, spec := range templateSpecs {
		_, factory, err := Resolve("timetable", spec.size, spec.params)
		if err != nil {
			t.Fatal(err)
		}
		model := cachedModel(t, "timetable", spec.size, spec.params)
		first, err := factory()
		if err != nil {
			t.Fatal(err)
		}
		if first == model {
			t.Fatalf("timetable %d: the factory handed out the cached model", spec.size)
		}
		fresh, err := NewWithParams("timetable", spec.size, spec.params)
		if err != nil {
			t.Fatal(err)
		}
		unreduced := domainsOf(fresh.(core.FDProblem))
		if err := fresh.(core.DomainReducer).ReduceDomains(); err != nil {
			t.Fatal(err)
		}
		shared := domainsOf(model.(core.FDProblem))
		if !reflect.DeepEqual(shared, domainsOf(fresh.(core.FDProblem))) {
			t.Fatalf("timetable %d: the cached model's domains are not a fresh instance's reduced ones", spec.size)
		}
		if spec.size >= 100 && reflect.DeepEqual(shared, unreduced) {
			t.Fatalf("timetable %d: reduction removed nothing; NewWithParams no longer returns an unreduced instance, or the spec has nothing to propagate", spec.size)
		}
		for seed := uint64(1); seed <= uint64(seeds); seed++ {
			clone, err := factory()
			if err != nil {
				t.Fatal(err)
			}
			if clone == model || clone == first {
				t.Fatalf("timetable %d: a later factory call handed out an instance already handed out, or the model", spec.size)
			}
			want := traceOn(t, fresh, seed)
			if got := traceOn(t, clone, seed); !reflect.DeepEqual(got, want) {
				t.Fatalf("timetable %d seed %d: clone searched\n%+v, fresh reduced instance\n%+v", spec.size, seed, got, want)
			}
			if got := traceOn(t, first, seed); !reflect.DeepEqual(got, want) {
				t.Fatalf("timetable %d seed %d: first clone searched\n%+v, fresh reduced instance\n%+v", spec.size, seed, got, want)
			}
		}
		if !reflect.DeepEqual(domainsOf(model.(core.FDProblem)), shared) {
			t.Fatalf("timetable %d: searching on the clones changed the shared domains", spec.size)
		}
	}
}

// TestTemplateUnreducedCloneOwnsDomains: a clone taken before reduction
// may not share domain storage, because its own ReduceDomains narrows
// in place.
func TestTemplateUnreducedCloneOwnsDomains(t *testing.T) {
	p, err := NewTimetable(100, map[string]int{"slots": 10})
	if err != nil {
		t.Fatal(err)
	}
	before := domainsOf(p)
	clone := p.Clone().(*Timetable)
	if err := clone.ReduceDomains(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(domainsOf(p), before) {
		t.Fatal("reducing a clone of an unreduced instance rewrote the original's domains")
	}
	if reflect.DeepEqual(domainsOf(clone), before) {
		t.Fatal("the clone's reduction removed nothing")
	}
}

// TestTemplateUnsatisfiable: the proof is Resolve's error, typed,
// before a factory exists — through every constructor built on it, and
// on every call, since a refusal is never cached.
func TestTemplateUnsatisfiable(t *testing.T) {
	params := map[string]int{"rooms": 1, "slots": 2}
	for call := 0; call < 2; call++ {
		if _, f, err := Resolve("timetable", 3, params); f != nil || !errors.Is(err, domain.ErrUnsatisfiable) {
			t.Fatalf("Resolve call %d = %v, want ErrUnsatisfiable and no factory", call, err)
		}
		if _, err := NewFactoryParams("timetable", 3, params); !errors.Is(err, domain.ErrUnsatisfiable) {
			t.Fatalf("NewFactoryParams call %d = %v, want ErrUnsatisfiable", call, err)
		}
	}
	if _, err := NewWithParams("timetable", 3, params); err != nil {
		t.Fatalf("NewWithParams = %v: it builds, it does not reduce", err)
	}
}

// TestTemplateAllocations pins what a spec's instances cost in heap
// objects, which is how "one construction and one fixpoint a spec" is
// asserted without a counter in the product: a construction is a
// handful of objects at any size (every domain is a window of one
// array, every resource's session list of another), a clone is three
// (the struct, occ, errVec), a reduction is one (its group list: the
// groups are the resources' own session lists), a reduction asked of
// an instance already reduced is none, the first resolve of a spec is
// one construction and one reduction, a job of a spec resolved before
// whose free list is empty is one clone a walker — not the construction
// and reduction a job paid when it built its own template, nor the
// three of each it paid before that — and a job whose walkers find the
// instances of earlier ones on the free list clones nothing.
func TestTemplateAllocations(t *testing.T) {
	const size = 200
	params := map[string]int{"slots": 8}
	build := func() *Timetable {
		p, err := NewTimetable(size, params)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	reduce := func(p core.Problem) {
		if err := p.(core.DomainReducer).ReduceDomains(); err != nil {
			t.Fatal(err)
		}
	}
	model := build()
	reduce(model)
	var kept core.Problem
	clone := testing.AllocsPerRun(100, func() { kept = model.Clone() })
	_ = kept
	if clone > 3 {
		t.Errorf("Timetable.Clone allocates %v objects, want <= 3", clone)
	}
	if n := testing.AllocsPerRun(100, func() { reduce(model) }); n != 0 {
		t.Errorf("a second ReduceDomains allocates %v objects, want 0", n)
	}

	construction := testing.AllocsPerRun(20, func() { build() })
	if construction > 12 {
		t.Errorf("constructing timetable %d allocates %v objects, want a handful (it was 358: one domain a session, one list a resource)", size, construction)
	}
	reduction := testing.AllocsPerRun(20, func() { reduce(build()) }) - construction
	if reduction > 1 {
		t.Errorf("one ReduceDomains on timetable %d allocates %v objects, want one: the group list, whose groups are the resources' own session lists (it was 848, then 2 with a copy of those lists)", size, reduction)
	}

	// The tuned options, the entry, its factory closure, its key and the
	// cache's map (header and one group) are six objects on top; a
	// second construction would be 11 more, a second fixpoint one more,
	// which is one over the allowance.
	const entry = 6
	miss := testing.AllocsPerRun(20, func() {
		resetSpecCache()
		if _, _, err := Resolve("timetable", size, params); err != nil {
			t.Fatal(err)
		}
	})
	if want := construction + reduction; miss < want || miss > want+entry {
		t.Errorf("the first resolve of timetable %d allocates %v objects, one construction + one reduction is %v", size, miss, want)
	}
	// job runs the walkers of one job as multiwalk does, minus the
	// search: each takes an instance, reduces it as core.Solve does, and
	// with recycle hands it back once all have taken theirs.
	job := func(walkers int, recycle bool) float64 {
		return testing.AllocsPerRun(20, func() {
			_, factory, err := Resolve("timetable", size, params)
			if err != nil {
				t.Fatal(err)
			}
			var held [2]core.Problem
			for w := 0; w < walkers; w++ {
				if held[w], err = factory.New(); err != nil {
					t.Fatal(err)
				}
				reduce(held[w])
			}
			for w := 0; recycle && w < walkers; w++ {
				factory.Recycle(held[w])
			}
		})
	}
	free := &cachedEntry(t, "timetable", size, params).free
	for free.Get() != nil { // what earlier tests' walkers recycled
	}
	if got, want := job(1, false), clone; got != want {
		t.Errorf("a one-walker job of a resolved spec with no free instance allocates %v objects, one clone is %v", got, want)
	}
	if got, want := job(2, false), 2*clone; got != want {
		t.Errorf("a two-walker job of a resolved spec with no free instance allocates %v objects, two clones are %v", got, want)
	}
	// A Recycle's argument list is the one object left: 16 B a walker
	// where a clone was three objects and 9 KB. (Under the race detector
	// a sync.Pool drops a quarter of what it is handed, on purpose.)
	if got := job(2, true); got > 2 && !raceEnabled {
		t.Errorf("a two-walker job whose walkers recycle allocates %v objects, want at most one a Recycle: a walker took a clone though an instance was free", got)
	}
}

// sink keeps a measured allocation on the heap.
var sink []int

// allocated returns the bytes the process allocated while fn ran.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestWalkerAllocations pins what core.Solve allocates for one solved
// walker, on a warm engine pool and on a cold one.
//
// Warm, once an earlier Solve has pooled its engine: the configuration
// it hands out as the solution, and nothing else. The engine, its
// stream and move set, the tabu marks, the row or assign buffer its
// evaluator fills and, on a permutation, the partial reset's scratch
// all come back from the pool, so a Solve cancelled before its first
// step allocates nothing at all. The solution is the walker's
// configuration buffer itself, which the engine drops once it has
// handed it out, so a shadow copy of the configuration (a walker used
// to keep its best one and copy it again into the Result) or a pooled
// buffer rebuilt a call fails the count.
//
// Cold, after two GC cycles have emptied the pool, as every job after
// an idle spell runs: the engine (read off a cancelled Solve) plus its
// working set — the tabu marks, the configuration, the row or assign
// buffer and, on a permutation, the partial reset's n positions and k
// values — each at the size the allocator gives it. So a buffer sized
// past its need, such as a reset scratch of n values, fails the budget.
//
// Every count is the least of three tries, so a stray runtime
// background allocation, or a goroutine that moved to another P between
// the pool's Put and Get, is not in it.
func TestWalkerAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's runtime allocates differently; the budget is for a plain build")
	}
	words := func(n int) uint64 {
		least := uint64(math.MaxUint64)
		for try := 0; try < 3; try++ {
			least = min(least, allocated(func() { sink = make([]int, n) }))
		}
		return least
	}
	for _, tc := range []struct {
		name    string
		size    int
		params  map[string]int
		working func(n, k int) uint64
	}{
		// Marks, configuration and one domain's assign row (8 slots).
		{"timetable", 200, map[string]int{"slots": 8}, func(n, _ int) uint64 {
			return 2*words(n) + words(8)
		}},
		// Marks, configuration, the swap row, and the reset's positions
		// and values.
		{"costas", 15, nil, func(n, k int) uint64 {
			return 4*words(n) + words(k)
		}},
	} {
		t.Run(fmt.Sprintf("%s-%d", tc.name, tc.size), func(t *testing.T) {
			opts, factory, err := Resolve(tc.name, tc.size, tc.params)
			if err != nil {
				t.Fatal(err)
			}
			opts.Seed = 1
			// solve runs one walker on an instance of the spec's, taken
			// and recycled outside the count, as a job's walker does;
			// cold, two GC cycles empty the engine pool first.
			solve := func(ctx context.Context, cold bool) (res core.Result, bytes uint64) {
				bytes = math.MaxUint64
				for try := 0; try < 3; try++ {
					p, err := factory.New()
					if err != nil {
						t.Fatal(err)
					}
					if cold {
						runtime.GC()
						runtime.GC()
					}
					bytes = min(bytes, allocated(func() { res, err = core.Solve(ctx, p, opts) }))
					if err != nil {
						t.Fatal(err)
					}
					factory.Recycle(p)
				}
				return res, bytes
			}
			cancelled, cancel := context.WithCancel(context.Background())
			cancel()

			t.Run("cold", func(t *testing.T) {
				_, fixed := solve(cancelled, true)
				res, got := solve(context.Background(), true)
				if !res.Solved {
					t.Fatalf("seed %d did not solve: %+v", opts.Seed, res)
				}
				n := tc.size
				k := min(max(2, int(opts.ResetFraction*float64(n))), n) // as the engine sizes a reset
				budget := fixed + tc.working(n, k)
				t.Logf("%d B for one solved walker on a cold pool (%d before its first step), budget %d", got, fixed, budget)
				if got > budget {
					t.Errorf("one solved walker allocates %d B on a cold pool, its engine and working set are %d B: something besides the working set is allocated per walker", got, budget)
				}
			})
			t.Run("warm", func(t *testing.T) {
				solve(context.Background(), false) // warm the pool
				if _, fixed := solve(cancelled, false); fixed != 0 {
					t.Errorf("a Solve cancelled before its first step allocates %d B on a warm pool, want 0", fixed)
				}
				res, got := solve(context.Background(), false)
				if !res.Solved {
					t.Fatalf("seed %d did not solve: %+v", opts.Seed, res)
				}
				solution := words(tc.size)
				t.Logf("%d B for one solved walker on a warm pool, its solution is %d B", got, solution)
				if got != solution {
					t.Errorf("one solved walker allocates %d B on a warm pool, its handed-out solution is %d B", got, solution)
				}
			})
		})
	}
}

// TestMaxSizeBudget: one request must not be able to make a server
// build an instance that exhausts its memory. Every benchmark builds
// and reduces within 64 MiB at its MaxSize, and timetable also with its
// parameters at their caps: all three at once, and the over-committed
// shape (one room) whose every domain holds every slot. The size above
// each cap, and each timetable parameter above its own, is refused
// before anything like an instance is allocated.
func TestMaxSizeBudget(t *testing.T) {
	const budget = 64 << 20
	type spec struct {
		name   string
		size   int
		params map[string]int
	}
	var specs []spec
	for _, name := range Names() {
		info, err := Describe(name)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec{name, info.MaxSize, nil})

		var refused error
		cost := allocated(func() { _, refused = NewWithParams(name, info.MaxSize+1, nil) })
		if !errors.Is(refused, ErrTooLarge) {
			t.Errorf("%s size %d: %v, want ErrTooLarge", name, info.MaxSize+1, refused)
		}
		if cost > 4<<10 {
			t.Errorf("%s size %d: the refusal allocated %d B", name, info.MaxSize+1, cost)
		}
	}
	caps := timetableParams
	n := registry["timetable"].maxSize
	specs = append(specs,
		spec{"timetable", n, map[string]int{"slots": caps["slots"], "rooms": caps["rooms"], "teachers": caps["teachers"]}},
		spec{"timetable", n, map[string]int{"slots": caps["slots"], "rooms": 1}},
	)
	for k, hi := range caps {
		var refused error
		cost := allocated(func() { _, refused = NewWithParams("timetable", 4, map[string]int{k: hi + 1}) })
		if !errors.Is(refused, ErrBadParams) {
			t.Errorf("timetable %s=%d: %v, want ErrBadParams", k, hi+1, refused)
		}
		if cost > 4<<10 {
			t.Errorf("timetable %s=%d: the refusal allocated %d B", k, hi+1, cost)
		}
	}
	for _, s := range specs {
		var err error
		cost := allocated(func() { _, err = buildSpec(s.name, s.size, s.params) })
		t.Logf("%s %d %v: %.1f MiB", s.name, s.size, s.params, float64(cost)/(1<<20))
		if err != nil && !errors.Is(err, domain.ErrUnsatisfiable) {
			t.Errorf("%s %d %v: %v", s.name, s.size, s.params, err)
		}
		if cost > budget {
			t.Errorf("%s %d %v: %d B to build, budget %d", s.name, s.size, s.params, cost, budget)
		}
	}
}
