package multiwalk

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
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
		if s.Entry != -1 {
			t.Errorf("homogeneous walker %d has Entry %d, want -1", i, s.Entry)
		}
		if !s.Result.Interrupted {
			t.Errorf("unrun walker %d not marked Interrupted", i)
		}
		if s.Result.Iterations != 0 {
			t.Errorf("unrun walker %d reports %d iterations", i, s.Result.Iterations)
		}
	}
}

func TestRunVirtualAlreadyCancelledPortfolioEntries(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := tunedEngine(t, "costas", 9)
	opts := Options{
		Walkers: 4,
		Seed:    1,
		Portfolio: []PortfolioEntry{
			{Weight: 1, Engine: eng},
			{Weight: 1, Engine: eng},
		},
	}
	res, err := RunVirtual(ctx, costasFactory(t, 9), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range res.Walkers {
		if want := i % 2; s.Entry != want {
			t.Errorf("unrun walker %d has Entry %d, want %d", i, s.Entry, want)
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
		if s.Walker != i || s.Entry != -1 {
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
		t.Fatalf("Completed = %d, want 4 (every goroutine starts)", res.Completed)
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
// burning its (endless) budget; k = 1 returns the error too.
func TestRunWalkerErrorCancelsEitherWay(t *testing.T) {
	healthy := hardOptions(t, 20)
	broken := healthy
	broken.Strategy = "no-such-strategy"
	for _, tc := range []struct {
		name      string
		walkers   int
		portfolio []PortfolioEntry
	}{
		{"spawned walker fails", 2, []PortfolioEntry{{Engine: broken}, {Engine: healthy}}},
		{"inline walker fails", 2, []PortfolioEntry{{Engine: healthy}, {Engine: broken}}},
		{"only walker fails", 1, []PortfolioEntry{{Engine: broken}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			done := make(chan error, 1)
			go func() {
				_, err := Run(context.Background(), hardFactory(t, 20), Options{Walkers: tc.walkers, Seed: 1, Portfolio: tc.portfolio})
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), "no-such-strategy") {
					t.Fatalf("err = %v, want the broken walker's", err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("the walker error did not cancel the surviving walker")
			}
		})
	}
}

// TestRunSharedTimetableTemplate is for the race detector: four walkers
// of one Run draw from one timetable factory, so one searches on the
// template while the others clone it and search on clones that share
// its domains. Every repeat must also be the walk RunVirtual replays.
func TestRunSharedTimetableTemplate(t *testing.T) {
	const size = 48
	params := map[string]int{"slots": 8}
	template, _, err := problems.NewTemplate("timetable", size, params)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Walkers: 4, Engine: core.TunedOptions(template)}
	factory := func() Factory {
		f, err := problems.NewFactoryParams("timetable", size, params)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	for seed := uint64(1); seed <= 8; seed++ {
		opts.Seed = seed
		virtual, err := RunVirtual(context.Background(), factory(), opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), factory(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Solved || !virtual.Solved {
			t.Fatalf("seed %d: solved %v, virtual %v", seed, res.Solved, virtual.Solved)
		}
		// Whoever won the wall-clock race walked exactly as it does alone.
		won := virtual.Walkers[res.Winner].Result
		if !won.Solved || won.Iterations != res.WinnerIterations || !reflect.DeepEqual(won.Solution, res.Solution) {
			t.Fatalf("seed %d: walker %d won in %d iterations, alone it needs %d (solved %v)", seed, res.Winner, res.WinnerIterations, won.Iterations, won.Solved)
		}
		if !template.(*problems.Timetable).Verify(res.Solution) {
			t.Fatalf("seed %d: solution fails Verify", seed)
		}
	}
}
