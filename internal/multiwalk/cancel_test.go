package multiwalk

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/problems"
)

// hardOptions returns engine options that cannot finish on their own:
// a huge iteration budget on a large magic square, with a tight
// cancellation poll so walkers react to the context quickly.
func hardOptions(t *testing.T, n int) core.Options {
	t.Helper()
	eng := tunedEngine(t, "magic-square", n)
	eng.MaxIterations = math.MaxInt64 / 4
	eng.CheckEvery = 16
	return eng
}

func hardFactory(t *testing.T, n int) Factory {
	t.Helper()
	f, err := problems.NewFactory("magic-square", n)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestRunVirtualAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := Options{Walkers: 4, Seed: 1, Engine: tunedEngine(t, "costas", 9)}
	res, err := RunVirtual(ctx, costasFactory(t, 9), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Solved || res.Winner != -1 {
		t.Fatalf("pre-cancelled sweep reported a winner: %+v", res)
	}
	if !res.Truncated {
		t.Fatal("pre-cancelled sweep not marked Truncated")
	}
	if res.Completed != 0 {
		t.Fatalf("Completed = %d, want 0", res.Completed)
	}
	if len(res.Walkers) != 4 {
		t.Fatalf("expected 4 walker stats, got %d", len(res.Walkers))
	}
	for i, s := range res.Walkers {
		if s.Walker != i {
			t.Errorf("walker %d has index %d (pre-fix zero value)", i, s.Walker)
		}
		if !s.Result.Interrupted {
			t.Errorf("unrun walker %d not marked Interrupted", i)
		}
		if s.Result.Iterations != 0 {
			t.Errorf("unrun walker %d reports %d iterations", i, s.Result.Iterations)
		}
	}
}

// TestRunVirtualAlreadyCancelledShardIdentity: the walkers a cancelled
// shard never ran keep their global identity, so CombineShards can
// place them.
func TestRunVirtualAlreadyCancelledShardIdentity(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := Options{Walkers: 4, Seed: 1, Engine: tunedEngine(t, "costas", 9), Shard: &Shard{Start: 3, Total: 8}}
	res, err := RunVirtual(ctx, costasFactory(t, 9), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range res.Walkers {
		if s.Walker != 3+i || !s.Result.Interrupted || s.Result.Cost != core.CostUnknown {
			t.Errorf("unrun walker %d: %+v, want global index %d, Interrupted, CostUnknown", i, s, 3+i)
		}
	}
}

func TestRunVirtualMidSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	opts := Options{Walkers: 4, Seed: 1, Engine: hardOptions(t, 20)}
	res, err := RunVirtual(ctx, hardFactory(t, 20), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Solved {
		t.Skip("solved within 30ms — machine faster than expected")
	}
	if !res.Truncated {
		t.Fatal("mid-sweep cancellation not marked Truncated")
	}
	if res.Completed < 1 || res.Completed >= 4 {
		t.Fatalf("Completed = %d, want in [1, 4)", res.Completed)
	}
	for i, s := range res.Walkers {
		if s.Walker != i {
			t.Errorf("walker %d carries zero-valued identity: %+v", i, s)
		}
		if i >= res.Completed {
			if !s.Result.Interrupted || s.Result.Iterations != 0 {
				t.Errorf("unrun walker %d: %+v", i, s.Result)
			}
		} else if s.Result.Iterations == 0 {
			t.Errorf("completed walker %d did no work", i)
		}
	}
}

func TestRunVirtualUntruncatedSweepIsComplete(t *testing.T) {
	opts := Options{Walkers: 3, Seed: 5, Engine: tunedEngine(t, "costas", 9)}
	res, err := RunVirtual(context.Background(), costasFactory(t, 9), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Fatalf("uncancelled sweep marked Truncated: %+v", res)
	}
	if res.Completed != 3 {
		t.Fatalf("Completed = %d, want 3", res.Completed)
	}
}

func TestRunAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := Options{Walkers: 4, Seed: 1, Engine: tunedEngine(t, "costas", 9)}
	res, err := Run(ctx, costasFactory(t, 9), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Solved {
		t.Fatalf("pre-cancelled run solved: %+v", res)
	}
	if !res.Truncated {
		t.Fatal("pre-cancelled run not marked Truncated")
	}
	if res.Completed != 4 {
		t.Fatalf("Completed = %d, want 4 (a walker Run claims before it starts is accounted for)", res.Completed)
	}
	for i, s := range res.Walkers {
		if s.Walker != i {
			t.Errorf("walker %d has index %d", i, s.Walker)
		}
		if !s.Result.Interrupted {
			t.Errorf("walker %d not interrupted", i)
		}
		if s.Result.Iterations != 0 {
			t.Errorf("pre-cancelled walker %d ran %d iterations, want 0", i, s.Result.Iterations)
		}
	}
}

func TestRunMidRunCancellation(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	opts := Options{Walkers: 3, Seed: 1, Engine: hardOptions(t, 20)}
	res, err := Run(ctx, hardFactory(t, 20), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Solved {
		t.Skip("solved within 30ms — machine faster than expected")
	}
	if !res.Truncated {
		t.Fatal("deadline-cancelled run not marked Truncated")
	}
	for i, s := range res.Walkers {
		if !s.Result.Interrupted {
			t.Errorf("walker %d not interrupted by deadline", i)
		}
	}
}

func TestRunSolvedIsNotTruncated(t *testing.T) {
	opts := Options{Walkers: 4, Seed: 13, Engine: tunedEngine(t, "costas", 10)}
	res, err := Run(context.Background(), costasFactory(t, 10), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("not solved: %+v", res)
	}
	if res.Truncated {
		t.Fatal("solved run marked Truncated (loser interruption is normal completion)")
	}
	if res.Completed != 4 {
		t.Fatalf("Completed = %d, want 4", res.Completed)
	}
}

// TestProgressHook checks that Options.Progress observes every walker
// with monotone per-walker iteration counts, in both execution modes.
func TestProgressHook(t *testing.T) {
	eng := tunedEngine(t, "costas", 9)
	eng.CheckEvery = 8
	var mu sync.Mutex
	last := map[int]int64{}
	progress := func(w int, iter int64, cost int) {
		mu.Lock()
		defer mu.Unlock()
		if iter < last[w] {
			t.Errorf("walker %d iteration count went backwards: %d -> %d", w, last[w], iter)
		}
		last[w] = iter
		if cost < 0 {
			t.Errorf("walker %d reported negative cost %d", w, cost)
		}
	}

	opts := Options{Walkers: 3, Seed: 2, Engine: eng, Progress: progress}
	if _, err := RunVirtual(context.Background(), costasFactory(t, 9), opts); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	seen := len(last)
	mu.Unlock()
	if seen == 0 {
		t.Fatal("Progress never invoked under RunVirtual")
	}
	for w := range last {
		if w < 0 || w >= 3 {
			t.Errorf("Progress saw out-of-range walker %d", w)
		}
	}

	mu.Lock()
	last = map[int]int64{}
	mu.Unlock()
	if _, err := Run(context.Background(), costasFactory(t, 9), opts); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(last) == 0 {
		t.Fatal("Progress never invoked under Run")
	}
}

// TestEngineMonitorChained checks that a caller-supplied Engine.Monitor
// survives the driver's monitor chaining and can steer the run.
func TestEngineMonitorChained(t *testing.T) {
	eng := hardOptions(t, 20)
	var calls int64
	var mu sync.Mutex
	eng.Monitor = func(iter int64, cost int, cfg []int) core.Directive {
		mu.Lock()
		calls++
		mu.Unlock()
		return core.Directive{Stop: true}
	}
	opts := Options{Walkers: 2, Seed: 3, Engine: eng}
	res, err := RunVirtual(context.Background(), hardFactory(t, 20), opts)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls == 0 {
		t.Fatal("caller Monitor was discarded by the multi-walk driver")
	}
	for i, s := range res.Walkers {
		if !s.Result.Interrupted {
			t.Errorf("walker %d ignored the Monitor Stop directive", i)
		}
	}
	// A Monitor-initiated stop is the sweep finishing on its own terms,
	// not a context cancellation: Truncated must stay false.
	if res.Truncated {
		t.Errorf("Monitor Stop marked the sweep Truncated: %+v", res)
	}
	if res.Completed != 2 {
		t.Errorf("Completed = %d, want 2", res.Completed)
	}
}

// TestRunSingleWalkerInline: Run's last walker is the calling
// goroutine, so a one-walker run starts none — the factory is called
// with this test function on its stack — and keeps the semantics of a
// spawned walker: solved is not Truncated, a dead context is.
func TestRunSingleWalkerInline(t *testing.T) {
	inline := false
	inner := costasFactory(t, 9)
	factory := func() (core.Problem, error) {
		pcs := make([]uintptr, 32)
		frames := runtime.CallersFrames(pcs[:runtime.Callers(0, pcs)])
		for {
			f, more := frames.Next()
			if strings.HasSuffix(f.Function, ".TestRunSingleWalkerInline") {
				inline = true
			}
			if !more {
				break
			}
		}
		return inner()
	}
	opts := Options{Walkers: 1, Seed: 13, Engine: tunedEngine(t, "costas", 9)}
	res, err := Run(context.Background(), factory, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !inline {
		t.Fatal("a one-walker Run called its factory from another goroutine")
	}
	if !res.Solved || res.Truncated || res.Completed != 1 || res.Winner != 0 {
		t.Fatalf("one-walker run: %+v", res)
	}
	virtual, err := RunVirtual(context.Background(), costasFactory(t, 9), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.WinnerIterations != virtual.WinnerIterations {
		t.Fatalf("inline walker solved in %d iterations, the same walk under RunVirtual in %d", res.WinnerIterations, virtual.WinnerIterations)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err = Run(ctx, costasFactory(t, 9), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Solved || !res.Truncated || res.Completed != 1 || !res.Walkers[0].Result.Interrupted || res.Walkers[0].Result.Iterations != 0 {
		t.Fatalf("pre-cancelled one-walker run: %+v", res)
	}

	ctx, cancel = context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	opts.Engine = hardOptions(t, 20)
	res, err = Run(ctx, hardFactory(t, 20), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Solved {
		t.Skip("solved within 20ms — machine faster than expected")
	}
	if !res.Truncated || !res.Walkers[0].Result.Interrupted {
		t.Fatalf("deadline-cancelled one-walker run: %+v", res)
	}
}

// TestRunWalkerErrorCancelsEitherWay: a walker that fails cancels the
// run whether it is the one on the caller's goroutine (the last) or a
// spawned one, and whichever the survivor is, it stops instead of
// burning its (endless) budget; k = 1 returns the error too. The
// Progress hook breaks one walker by index.
func TestRunWalkerErrorCancelsEitherWay(t *testing.T) {
	for _, tc := range []struct {
		name            string
		walkers, broken int
	}{
		{"spawned walker fails", 2, 0},
		{"inline walker fails", 2, 1},
		{"only walker fails", 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{Walkers: tc.walkers, Seed: 1, Engine: hardOptions(t, 20), Progress: func(w int, _ int64, _ int) {
				if w == tc.broken {
					panic("broken walker")
				}
			}}
			done := make(chan error, 1)
			go func() {
				_, err := Run(context.Background(), hardFactory(t, 20), opts)
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("walker %d panicked: broken walker", tc.broken)) {
					t.Fatalf("err = %v, want walker %d's", err, tc.broken)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("the walker error did not cancel the surviving walker")
			}
		})
	}
}

// panicky is a problem whose move evaluation panics, as a user cost
// function with a bug would.
type panicky struct{ core.PermProblem }

func (panicky) CostsIfSwapAll([]int, int, int, []int) { panic("cost function bug") }

// onRunCaller reports whether the calling goroutine is the one that
// called Run (its last walker) rather than a walker Run spawned.
func onRunCaller() bool {
	pcs := make([]uintptr, 32)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(0, pcs)])
	for {
		f, more := frames.Next()
		if f.Function == "repro/internal/multiwalk.Run" {
			return true
		}
		if !more {
			return false
		}
	}
}

// TestRunWalkerPanicIsItsError: a problem that panics mid-search fails
// its walker, not the process, whether that walker is a spawned one or
// the caller's goroutine; the run ends — the healthy walker's budget is
// endless — and its error names the walker.
func TestRunWalkerPanicIsItsError(t *testing.T) {
	for _, tc := range []struct {
		name    string
		walkers int
		inline  bool // the walker on Run's caller panics, else the spawned one
		want    string
	}{
		{"spawned walker panics", 2, false, "walker 0 panicked: cost function bug"},
		{"inline walker panics", 2, true, "walker 1 panicked: cost function bug"},
		{"only walker panics", 1, true, "walker 0 panicked: cost function bug"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inner := hardFactory(t, 20)
			factory := func() (core.Problem, error) {
				p, err := inner()
				if err != nil || onRunCaller() != tc.inline {
					return p, err
				}
				return panicky{p.(core.PermProblem)}, nil
			}
			opts := Options{Walkers: tc.walkers, Seed: 1, Engine: hardOptions(t, 20)}
			done := make(chan error, 1)
			go func() {
				_, err := Run(context.Background(), factory, opts)
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("err = %v, want %q", err, tc.want)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("the panicking walker did not end the run")
			}
		})
	}
}

// solvedAtStart costs nothing anywhere, so a walker on it solves on
// its initial configuration, in zero iterations.
type solvedAtStart struct{ inversionsProblem }

func (solvedAtStart) Cost([]int) int { return 0 }

// TestRunClaimsUnstartedWalker: with one P, the goroutine Run spawns
// for walker 0 cannot start before the caller's walker, which solves at
// once, ends the run. Run then claims walker 0: its problem is never
// built, its stat is the never-run shape, it still counts as completed,
// and its goroutine, when it does run, exits without a trace.
func TestRunClaimsUnstartedWalker(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, shard := range []*Shard{nil, {Start: 4, Total: 6}} {
		before := runtime.NumGoroutine()
		var calls atomic.Int64
		factory := func() (core.Problem, error) {
			calls.Add(1)
			return solvedAtStart{inversionsProblem{n: 8}}, nil
		}
		res, err := Run(context.Background(), factory, Options{Walkers: 2, Seed: 1, Shard: shard})
		if err != nil {
			t.Fatal(err)
		}
		first := 0
		if shard != nil {
			first = shard.Start
		}
		if n := calls.Load(); n != 1 {
			t.Fatalf("shard %+v: factory called %d times, want once (the caller's walker only)", shard, n)
		}
		if !res.Solved || res.Winner != first+1 || res.Truncated || res.Completed != 2 {
			t.Fatalf("shard %+v: solved %v winner %d truncated %v completed %d, want solved by walker %d, not truncated, 2 completed",
				shard, res.Solved, res.Winner, res.Truncated, res.Completed, first+1)
		}
		never := WalkerStat{Walker: first, Result: core.Result{Interrupted: true, Cost: core.CostUnknown}}
		if !reflect.DeepEqual(res.Walkers[0], never) {
			t.Fatalf("shard %+v: unstarted walker recorded as %+v, want %+v", shard, res.Walkers[0], never)
		}
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("shard %+v: %d goroutines after Run, %d before", shard, runtime.NumGoroutine(), before)
			}
		}
		if n := calls.Load(); n != 1 {
			t.Fatalf("shard %+v: the late goroutine called the factory (%d calls)", shard, n)
		}
	}
}

// TestRunWaitsForSelfClaimedWalker is the converse: a spawned goroutine
// has claimed walker 0 and is searching before the caller's walker even
// has its problem, so when the caller's walker solves, Run waits for
// walker 0 and returns what it really did.
func TestRunWaitsForSelfClaimedWalker(t *testing.T) {
	searching := make(chan struct{})
	var once sync.Once
	var calls atomic.Int64
	factory := func() (core.Problem, error) {
		calls.Add(1)
		if onRunCaller() {
			<-searching
			return solvedAtStart{inversionsProblem{n: 8}}, nil
		}
		return inversionsProblem{n: 8}, nil
	}
	res, err := Run(context.Background(), factory, Options{
		Walkers: 2,
		Seed:    1,
		Engine:  core.Options{MaxIterations: 64, MaxRuns: 1, CheckEvery: 4},
		Progress: func(w int, _ int64, _ int) {
			if w == 0 {
				once.Do(func() { close(searching) })
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("factory called %d times, want 2", n)
	}
	if !res.Solved || res.Winner != 1 || res.Completed != 2 {
		t.Fatalf("solved %v winner %d completed %d, want solved by walker 1, 2 completed", res.Solved, res.Winner, res.Completed)
	}
	ran := res.Walkers[0].Result
	if ran.Solved || ran.Iterations < 4 || ran.Cost == core.CostUnknown || ran.Cost < 1 {
		t.Fatalf("walker 0 searched, yet reports %+v", ran)
	}
	if res.TotalIterations != ran.Iterations {
		t.Fatalf("TotalIterations %d, want walker 0's %d", res.TotalIterations, ran.Iterations)
	}
}

// TestRunSharedTimetableTemplate is for the race detector: the four
// walkers of one Run are clones of the one timetable model the spec
// cache keeps for the process, searching side by side on clones that
// share its domains, each cloned while others search. Every repeat
// must also be the walk RunVirtual replays.
func TestRunSharedTimetableTemplate(t *testing.T) {
	const size = 48
	params := map[string]int{"slots": 8}
	tuned, _, err := problems.Resolve("timetable", size, params)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Walkers: 4, Engine: tuned}
	factory := func() Factory {
		f, err := problems.NewFactoryParams("timetable", size, params)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	checker, err := factory()()
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 8; seed++ {
		opts.Seed = seed
		virtual, err := RunVirtual(context.Background(), factory(), opts)
		if err != nil {
			t.Fatal(err)
		}
		// A sub-millisecond search can end before any spawned walker
		// starts, and Run then never takes their problems. So a poll
		// waits until a second problem has been taken: on one P too, a
		// walker clones the model after another has searched on a clone
		// of it, with nothing ordering the search's writes before the
		// clone.
		built := factory()
		var calls atomic.Int64
		twoBuilt := make(chan struct{})
		concurrent := opts
		concurrent.Progress = func(int, int64, int) { <-twoBuilt }
		res, err := Run(context.Background(), func() (core.Problem, error) {
			p, err := built()
			if calls.Add(1) == 2 {
				close(twoBuilt)
			}
			return p, err
		}, concurrent)
		if err != nil {
			t.Fatal(err)
		}
		if calls.Load() < 2 {
			t.Fatalf("seed %d: one walker took a problem, none cloned the model after it", seed)
		}
		if !res.Solved || !virtual.Solved {
			t.Fatalf("seed %d: solved %v, virtual %v", seed, res.Solved, virtual.Solved)
		}
		// Whoever won the wall-clock race walked exactly as it does alone.
		won := virtual.Walkers[res.Winner].Result
		if !won.Solved || won.Iterations != res.WinnerIterations || !reflect.DeepEqual(won.Solution, res.Solution) {
			t.Fatalf("seed %d: walker %d won in %d iterations, alone it needs %d (solved %v)", seed, res.Winner, res.WinnerIterations, won.Iterations, won.Solved)
		}
		if !checker.(*problems.Timetable).Verify(res.Solution) {
			t.Fatalf("seed %d: solution fails Verify", seed)
		}
	}
}
