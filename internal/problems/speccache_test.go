package problems

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/multiwalk"
)

// resetSpecCache empties the process's spec cache, so that a test's
// next resolve of any spec is its first.
func resetSpecCache() {
	specs.mu.Lock()
	defer specs.mu.Unlock()
	specs.entries, specs.held = nil, 0
}

// cachedEntry returns the spec's cache entry, failing the test when the
// cache does not hold it.
func cachedEntry(t *testing.T, name string, size int, params map[string]int) *specEntry {
	t.Helper()
	specs.mu.Lock()
	defer specs.mu.Unlock()
	e, ok := specs.entries[string(specKey(nil, name, size, params))]
	if !ok {
		t.Fatalf("the cache holds no %s-%d %v", name, size, params)
	}
	return e
}

// cachedModel returns the model the spec's factory clones.
func cachedModel(t *testing.T, name string, size int, params map[string]int) core.Problem {
	t.Helper()
	model, ok := cachedEntry(t, name, size, params).model.(core.Problem)
	if !ok {
		t.Fatalf("%s-%d keeps no model", name, size)
	}
	return model
}

// cacheSize is how many specs the cache holds and the bytes it counts.
func cacheSize() (entries int, held int64) {
	specs.mu.Lock()
	defer specs.mu.Unlock()
	return len(specs.entries), specs.held
}

// TestSpecCacheSharesNoState: eight concurrent two-walker runs of one
// cached timetable-200 (slots 8), every walker a clone of one model,
// and each walk is exactly the walk a fresh, freshly reduced instance
// takes alone at that seed — iterations, cost and solution. The runs
// are budgeted so that three of these seeds solve and five do not: in
// those, both walkers walk to the end of their budget instead of one
// stopping the other wherever the race left it. Run under -race, this
// is the proof that a clone shares nothing a search writes.
func TestSpecCacheSharesNoState(t *testing.T) {
	const size, runs, walkers = 200, 8, 2
	params := map[string]int{"slots": 8}
	tuned, cached, err := Resolve("timetable", size, params)
	if err != nil {
		t.Fatal(err)
	}
	tuned.MaxIterations, tuned.MaxRuns = 20_000, 1
	fresh := core.FactoryFunc(func() (core.Problem, error) {
		p, err := NewWithParams("timetable", size, params)
		if err != nil {
			return nil, err
		}
		return p, p.(core.DomainReducer).ReduceDomains()
	})
	seed := func(run int) uint64 { return uint64(4600 + run) }
	got := make([]multiwalk.Result, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for run := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[run], errs[run] = multiwalk.Run(context.Background(), multiwalk.Factory(cached),
				multiwalk.Options{Walkers: walkers, Seed: seed(run), Engine: tuned})
		}()
	}
	wg.Wait()
	compared, solved := 0, 0
	for run, res := range got {
		if errs[run] != nil {
			t.Fatal(errs[run])
		}
		for _, w := range res.Walkers {
			if w.Result.Interrupted {
				continue // stopped by a winner: a walk cut short where the race left it
			}
			// The walker alone, as a one-walker shard of the job.
			solo, err := multiwalk.Run(context.Background(), fresh, multiwalk.Options{
				Walkers: 1, Seed: seed(run), Engine: tuned,
				Shard: &multiwalk.Shard{Start: w.Walker, Total: walkers},
			})
			if err != nil {
				t.Fatal(err)
			}
			alone := solo.Walkers[0].Result
			compared++
			if w.Result.Iterations != alone.Iterations || w.Result.Cost != alone.Cost || !reflect.DeepEqual(w.Result.Solution, alone.Solution) {
				t.Errorf("seed %d walker %d: %d iterations, cost %d on a clone; %d, cost %d on a fresh instance (solutions equal: %v)",
					seed(run), w.Walker, w.Result.Iterations, w.Result.Cost, alone.Iterations, alone.Cost, reflect.DeepEqual(w.Result.Solution, alone.Solution))
			}
			if !res.Solved || w.Walker != res.Winner {
				continue
			}
			solved++
			if res.WinnerIterations != alone.Iterations || !reflect.DeepEqual(res.Solution, alone.Solution) {
				t.Errorf("seed %d: walker %d won in %d iterations, alone it needs %d", seed(run), res.Winner, res.WinnerIterations, alone.Iterations)
			}
		}
	}
	if compared < runs+5 || solved < 3 {
		t.Errorf("%d of %d walks ran to their end, %d of %d runs solved; the budget no longer splits the seeds three solved, five not", compared, walkers*runs, solved, runs)
	}
	reduced, err := fresh()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(domainsOf(cachedModel(t, "timetable", size, params).(core.FDProblem)), domainsOf(reduced.(core.FDProblem))) {
		t.Error("the runs changed the cached model's domains")
	}
}

// TestSpecCacheKey: a spec is one entry whatever order its params come
// in, and whether its size is given or defaulted; the first resolve of
// a spec builds its model and a later one builds nothing. Keys are
// length-prefixed, so specs that would print alike do not collide.
func TestSpecCacheKey(t *testing.T) {
	resetSpecCache()
	var miss, hit core.Options
	var err error
	if built := allocated(func() { miss, _, err = Resolve("timetable", 100, map[string]int{"slots": 10}) }); err != nil || built < 10_000 {
		t.Fatalf("the first resolve of timetable-100 allocated %d B (%v); it builds the model, 10 KB or more", built, err)
	}
	if cost := allocated(func() { hit, _, err = Resolve("timetable", 100, map[string]int{"slots": 10}) }); err != nil || cost >= 1<<10 {
		t.Errorf("the second resolve of timetable-100 allocated %d B (%v); it builds nothing, under 1 KB", cost, err)
	}
	if !reflect.DeepEqual(hit, miss) {
		t.Errorf("options on a hit\n%+v\nwant those of the miss\n%+v", hit, miss)
	}
	for _, order := range [][]string{{"slots", "rooms", "teachers"}, {"teachers", "rooms", "slots"}, {"rooms", "slots", "teachers"}} {
		params := map[string]int{}
		for _, k := range order {
			params[k] = map[string]int{"slots": 6, "rooms": 4, "teachers": 4}[k]
		}
		if _, _, err := Resolve("timetable", 20, params); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := cacheSize(); n != 2 {
		t.Errorf("the cache holds %d specs after timetable-100 and timetable-20 in three orders, want 2", n)
	}
	info, err := Describe("costas")
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{0, info.DefaultSize, -1} {
		if _, _, err := Resolve("costas", size, nil); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := cacheSize(); n != 3 {
		t.Errorf("the cache holds %d specs after costas at its default size three ways, want 3", n)
	}
	for _, pair := range [][2]string{
		{string(specKey(nil, "timetable", 1, map[string]int{"slots": 12})), string(specKey(nil, "timetable", 11, map[string]int{"slots": 2}))},
		{string(specKey(nil, "a", 1, map[string]int{"b,1:c": 2})), string(specKey(nil, "a", 1, map[string]int{"b": 1, "c": 2}))},
	} {
		if pair[0] == pair[1] {
			t.Errorf("two specs share the key %q", pair[0])
		}
	}
}

// TestSpecCacheBounds: the cache holds at most 256 specs and 64 MiB of
// model. Distinct timetables whose models sum past the byte bound
// leave it at or under the bound, with the newest kept; ten times as
// many distinct specs as it holds leave it at its entry cap; and a
// spec whose model alone is over the bound still answers its options
// and instances, and is not kept.
func TestSpecCacheBounds(t *testing.T) {
	resetSpecCache()
	t.Cleanup(resetSpecCache)
	// Over-provisioned rooms and teachers: some 1 MiB of model each
	// (mostly the domains), and a reduction with next to nothing to
	// propagate. The 4 MiB occupancy table is a searched instance's
	// state, not the model's: the cached model holds none, and counts
	// none, of what a clone allocates to search.
	var resolved int64
	var count int
	for slots := 256; resolved <= specCacheBytes+specCacheBytes/4; slots-- {
		count++
		params := map[string]int{"slots": slots, "rooms": 1024, "teachers": 1024}
		if _, _, err := Resolve("timetable", 1024, params); err != nil {
			t.Fatal(err)
		}
		e := cachedEntry(t, "timetable", 1024, params)
		resolved += e.bytes
		if count == 1 {
			model := e.model.(*Timetable)
			clone := model.Clone().(*Timetable)
			search := int64(8 * (len(clone.occ) + len(clone.errVec)))
			if model.occ != nil || model.errVec != nil || clone.ModelBytes()-e.bytes != search {
				t.Fatalf("the cached model holds occ %d and errVec %d long and counts %d B, a clone %d B; want no search state in the model, and the clone's %d B of it counted on the clone only",
					len(model.occ), len(model.errVec), e.bytes, clone.ModelBytes(), search)
			}
		}
		n, held := cacheSize()
		var sum int64
		specs.mu.Lock()
		for _, e := range specs.entries {
			sum += e.bytes
		}
		specs.mu.Unlock()
		if held > specCacheBytes || n > specCacheEntries || held != sum {
			t.Fatalf("after %d B of models resolved the cache holds %d specs and counts %d B (its entries' models are %d B); bounds %d and %d B", resolved, n, held, sum, specCacheEntries, specCacheBytes)
		}
	}
	if n, _ := cacheSize(); n >= count {
		t.Errorf("%d specs held after %d resolved with %d MiB of models: nothing was dropped", n, count, resolved>>20)
	}

	resetSpecCache()
	for size := 4; size < 4+10*specCacheEntries; size++ {
		if _, _, err := Resolve("queens", size, nil); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := cacheSize(); n != specCacheEntries {
		t.Errorf("the cache holds %d specs, cap %d", n, specCacheEntries)
	}

	small := &specCache{maxEntries: specCacheEntries, maxBytes: 1 << 10}
	params := map[string]int{"slots": 10}
	tuned, factory, err := small.resolve("timetable", 100, params)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := Resolve("timetable", 100, params)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tuned, want) {
		t.Errorf("a spec over the byte bound answers\n%+v\nwant\n%+v", tuned, want)
	}
	if p, err := factory(); err != nil || p.Size() != 100 {
		t.Errorf("a spec over the byte bound hands out %v, %v", p, err)
	}
	if len(small.entries) != 0 || small.held != 0 {
		t.Errorf("a spec over the byte bound was kept: %d specs, %d B", len(small.entries), small.held)
	}
}

// TestSpecCacheRebuildsEveryRefusal: no refusal is cached. Each kind —
// an unknown benchmark, bad params, a size over the cap, a model its
// reduction proves unsatisfiable — is checked, and refused, on every
// call: the unsatisfiable one constructs and reduces its model each
// time, and none of them leaves an entry.
func TestSpecCacheRebuildsEveryRefusal(t *testing.T) {
	info, err := Describe("timetable")
	if err != nil {
		t.Fatal(err)
	}
	unsat := map[string]int{"rooms": 1, "slots": 2}
	construction := testing.AllocsPerRun(5, func() {
		if _, err := NewWithParams("timetable", 3, unsat); err != nil {
			t.Fatal(err)
		}
	})
	for _, tc := range []struct {
		name   string
		size   int
		params map[string]int
		want   error
	}{
		{"nope", 10, nil, nil},
		{"timetable", 20, map[string]int{"chairs": 3}, ErrBadParams},
		{"timetable", 20, map[string]int{"rooms": 0}, ErrBadParams},
		{"costas", 10, map[string]int{"slots": 3}, ErrBadParams},
		{"timetable", info.MaxSize + 1, nil, ErrTooLarge},
		{"timetable", 3, unsat, domain.ErrUnsatisfiable},
	} {
		before, _ := cacheSize()
		for call := 0; call < 3; call++ {
			_, f, err := Resolve(tc.name, tc.size, tc.params)
			if err == nil || f != nil || (tc.want != nil && !errors.Is(err, tc.want)) {
				t.Errorf("%s-%d %v, call %d: %v, want %v and no factory", tc.name, tc.size, tc.params, call, err, tc.want)
			}
		}
		if n, _ := cacheSize(); n != before {
			t.Errorf("%s-%d %v: the cache went from %d specs to %d", tc.name, tc.size, tc.params, before, n)
		}
	}
	rebuilt := testing.AllocsPerRun(5, func() {
		if _, _, err := Resolve("timetable", 3, unsat); !errors.Is(err, domain.ErrUnsatisfiable) {
			t.Fatal(err)
		}
	})
	if rebuilt < construction {
		t.Errorf("a repeated unsatisfiable resolve allocates %v objects, a construction is %v: the refusal was cached", rebuilt, construction)
	}
}
