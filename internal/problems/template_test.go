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

// TestTemplateInstancesSearchAlike is the rule NewTemplate states, run:
// the first instance a factory hands out is the template itself, the
// later ones are clones, and neither can be told from a freshly built
// and reduced instance by any search — same trace for every seed —
// while the domains all of them share stay what the one reduction
// left.
func TestTemplateInstancesSearchAlike(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 3
	}
	for _, spec := range templateSpecs {
		template, factory, err := NewTemplate("timetable", spec.size, spec.params)
		if err != nil {
			t.Fatal(err)
		}
		first, err := factory()
		if err != nil {
			t.Fatal(err)
		}
		if first != template {
			t.Fatalf("timetable %d: the first factory call built something instead of handing out the template", spec.size)
		}
		fresh, err := NewWithParams("timetable", spec.size, spec.params)
		if err != nil {
			t.Fatal(err)
		}
		unreduced := domainsOf(fresh.(core.FDProblem))
		if err := fresh.(core.DomainReducer).ReduceDomains(); err != nil {
			t.Fatal(err)
		}
		shared := domainsOf(template.(core.FDProblem))
		if !reflect.DeepEqual(shared, domainsOf(fresh.(core.FDProblem))) {
			t.Fatalf("timetable %d: the template's domains are not a fresh instance's reduced ones", spec.size)
		}
		if spec.size >= 100 && reflect.DeepEqual(shared, unreduced) {
			t.Fatalf("timetable %d: reduction removed nothing; NewWithParams no longer returns an unreduced instance, or the spec has nothing to propagate", spec.size)
		}
		for seed := uint64(1); seed <= uint64(seeds); seed++ {
			clone, err := factory()
			if err != nil {
				t.Fatal(err)
			}
			if clone == template {
				t.Fatalf("timetable %d: a later factory call handed out the template again", spec.size)
			}
			want := traceOn(t, fresh, seed)
			if got := traceOn(t, clone, seed); !reflect.DeepEqual(got, want) {
				t.Fatalf("timetable %d seed %d: clone searched\n%+v, fresh reduced instance\n%+v", spec.size, seed, got, want)
			}
			if got := traceOn(t, template, seed); !reflect.DeepEqual(got, want) {
				t.Fatalf("timetable %d seed %d: template searched\n%+v, fresh reduced instance\n%+v", spec.size, seed, got, want)
			}
		}
		if !reflect.DeepEqual(domainsOf(template.(core.FDProblem)), shared) {
			t.Fatalf("timetable %d: searching on the template and its clones changed the shared domains", spec.size)
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

// TestTemplateUnsatisfiable: the proof is NewTemplate's error, typed,
// before a factory exists — through every constructor built on it.
func TestTemplateUnsatisfiable(t *testing.T) {
	params := map[string]int{"rooms": 1, "slots": 2}
	if _, _, err := NewTemplate("timetable", 3, params); !errors.Is(err, domain.ErrUnsatisfiable) {
		t.Fatalf("NewTemplate = %v, want ErrUnsatisfiable", err)
	}
	if _, err := NewFactoryParams("timetable", 3, params); !errors.Is(err, domain.ErrUnsatisfiable) {
		t.Fatalf("NewFactoryParams = %v, want ErrUnsatisfiable", err)
	}
	if _, err := NewWithParams("timetable", 3, params); err != nil {
		t.Fatalf("NewWithParams = %v: it builds, it does not reduce", err)
	}
	lazy := LazyFactory("timetable", 3, params)
	for call := 0; call < 2; call++ {
		if p, err := lazy(); p != nil || !errors.Is(err, domain.ErrUnsatisfiable) {
			t.Fatalf("LazyFactory call %d = %v, %v, want ErrUnsatisfiable", call, p, err)
		}
	}
}

// TestTemplateAllocations pins what a job's instances cost in heap
// objects, which is how "one construction and one fixpoint a job" is
// asserted without a counter in the product: a construction is a
// handful of objects at any size (every domain is a window of one
// array, every resource's session list of another), a clone is three
// (the struct, occ, errVec), a reduction is one (its group list: the
// groups are the resources' own session lists), a reduction asked of
// an instance already reduced is none, and a template plus the two
// instances of a two-walker job is one construction, one reduction and
// one clone — not the three constructions and three reductions it was.
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
	template := build()
	reduce(template)
	if n := testing.AllocsPerRun(100, func() { template.Clone() }); n > 3 {
		t.Errorf("Timetable.Clone allocates %v objects, want <= 3", n)
	}
	if n := testing.AllocsPerRun(100, func() { reduce(template) }); n != 0 {
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
	job := func(walkers int) float64 {
		return testing.AllocsPerRun(20, func() {
			_, factory, err := NewTemplate("timetable", size, params)
			if err != nil {
				t.Fatal(err)
			}
			for w := 0; w < walkers; w++ {
				p, err := factory()
				if err != nil {
					t.Fatal(err)
				}
				reduce(p) // as core.Solve does on every walker's instance
			}
		})
	}
	// The factory closure and its hand-out flag are two objects on top;
	// a second construction would be 11 more, a second fixpoint one
	// more, which is one over the allowance.
	const closure = 2
	if got, want := job(1), construction+reduction; got < want || got > want+closure {
		t.Errorf("a one-walker job allocates %v objects, one construction + one reduction is %v", got, want)
	}
	if got, want := job(2), construction+reduction+3; got < want || got > want+closure {
		t.Errorf("a two-walker job allocates %v objects, one construction + one reduction + one clone is %v", got, want)
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
// walker: what it allocates before its first step (engine, stream
// and move set, read off a Solve whose context is already
// cancelled) plus its working set — the tabu marks, the configuration,
// the row or assign buffer its evaluator fills and, on a permutation,
// the partial reset's n positions and k values — each at the size the
// allocator gives it. The solution is the configuration buffer itself,
// so a shadow copy of the configuration (a walker used to keep its best
// one and copy it again into the Result) or a reset scratch of n values
// fails the budget. Every count is the least of three tries, so a stray
// runtime background allocation is not in it.
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
			template, factory, err := NewTemplate(tc.name, tc.size, tc.params)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := factory(); err != nil { // hands out the template
				t.Fatal(err)
			}
			opts := core.TunedOptions(template)
			opts.Seed = 1
			// solve runs one walker on an instance of its own, built
			// outside the count, as a job's second walker gets a clone.
			solve := func(ctx context.Context) (res core.Result, bytes uint64) {
				bytes = math.MaxUint64
				for try := 0; try < 3; try++ {
					p, err := factory()
					if err != nil {
						t.Fatal(err)
					}
					bytes = min(bytes, allocated(func() { res, err = core.Solve(ctx, p, opts) }))
					if err != nil {
						t.Fatal(err)
					}
				}
				return res, bytes
			}
			cancelled, cancel := context.WithCancel(context.Background())
			cancel()
			_, fixed := solve(cancelled)
			res, got := solve(context.Background())
			if !res.Solved {
				t.Fatalf("seed %d did not solve: %+v", opts.Seed, res)
			}
			n := tc.size
			k := min(max(2, int(opts.ResetFraction*float64(n))), n) // as the engine sizes a reset
			budget := fixed + tc.working(n, k)
			t.Logf("%d B for one solved walker (%d before its first step), budget %d", got, fixed, budget)
			if got > budget {
				t.Errorf("one solved walker allocates %d B, its working set is %d B: something besides the working set is allocated per walker", got, budget)
			}
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
		cost := allocated(func() { _, _, err = NewTemplate(s.name, s.size, s.params) })
		t.Logf("%s %d %v: %.1f MiB", s.name, s.size, s.params, float64(cost)/(1<<20))
		if err != nil && !errors.Is(err, domain.ErrUnsatisfiable) {
			t.Errorf("%s %d %v: %v", s.name, s.size, s.params, err)
		}
		if cost > budget {
			t.Errorf("%s %d %v: %d B to build, budget %d", s.name, s.size, s.params, cost, budget)
		}
	}
}
