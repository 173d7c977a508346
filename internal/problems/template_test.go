package problems

import (
	"context"
	"errors"
	"reflect"
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
func traceOn(t *testing.T, p core.Problem, strategy string, seed uint64) core.Result {
	t.Helper()
	opts := core.TunedOptions(p)
	opts.Strategy = strategy
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
// and reduced instance by any search — same trace for every seed and
// strategy — while the domains all of them share stay what the one
// reduction left.
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
			for _, strategy := range core.StrategyNames() {
				clone, err := factory()
				if err != nil {
					t.Fatal(err)
				}
				if clone == template {
					t.Fatalf("timetable %d: a later factory call handed out the template again", spec.size)
				}
				want := traceOn(t, fresh, strategy, seed)
				if got := traceOn(t, clone, strategy, seed); !reflect.DeepEqual(got, want) {
					t.Fatalf("timetable %d %s seed %d: clone searched\n%+v, fresh reduced instance\n%+v", spec.size, strategy, seed, got, want)
				}
				if got := traceOn(t, template, strategy, seed); !reflect.DeepEqual(got, want) {
					t.Fatalf("timetable %d %s seed %d: template searched\n%+v, fresh reduced instance\n%+v", spec.size, strategy, seed, got, want)
				}
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
}

// TestTemplateAllocations pins what a job's instances cost in heap
// objects, which is how "one construction and one fixpoint a job" is
// asserted without a counter in the product: a clone is three objects
// (the struct, occ, errVec), a reduction asked of an instance already
// reduced is none, and a template plus the two instances of a
// two-walker job is one construction, one reduction and one clone —
// not the three constructions and three reductions it was.
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
	reduction := testing.AllocsPerRun(20, func() { reduce(build()) }) - construction
	if reduction > 4 {
		t.Errorf("one ReduceDomains on timetable %d allocates %v objects, want a handful (it was 848)", size, reduction)
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
	// The factory closure and its hand-out flag are two objects on top
	// today; a second construction would be ~360 more, a second
	// fixpoint two more, which is one over the allowance.
	const closure = 3
	if got, want := job(1), construction+reduction; got < want || got > want+closure {
		t.Errorf("a one-walker job allocates %v objects, one construction + one reduction is %v", got, want)
	}
	if got, want := job(2), construction+reduction+3; got < want || got > want+closure {
		t.Errorf("a two-walker job allocates %v objects, one construction + one reduction + one clone is %v", got, want)
	}
}
