package multiwalk

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/perm"
	"repro/internal/problems"
)

func costasFactory(t *testing.T, n int) Factory {
	t.Helper()
	f, err := problems.NewFactory("costas", n)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func tunedEngine(t *testing.T, name string, n int) core.Options {
	t.Helper()
	p, err := problems.New(name, n)
	if err != nil {
		t.Fatal(err)
	}
	return core.TunedOptions(p)
}

func TestRunVirtualSolvesAndPicksMinIterations(t *testing.T) {
	opts := Options{
		Walkers: 6,
		Seed:    11,
		Engine:  tunedEngine(t, "costas", 10),
	}
	res, err := RunVirtual(context.Background(), costasFactory(t, 10), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("not solved: %+v", res)
	}
	if res.Winner < 0 || res.Winner >= 6 {
		t.Fatalf("winner index %d out of range", res.Winner)
	}
	if len(res.Walkers) != 6 {
		t.Fatalf("expected 6 walker stats, got %d", len(res.Walkers))
	}
	var total int64
	for _, s := range res.Walkers {
		total += s.Result.Iterations
		if s.Result.Solved && s.Result.Iterations < res.WinnerIterations {
			t.Fatalf("walker %d solved in %d < winner's %d", s.Walker, s.Result.Iterations, res.WinnerIterations)
		}
	}
	if total != res.TotalIterations {
		t.Fatalf("TotalIterations = %d, sum = %d", res.TotalIterations, total)
	}
	if !perm.IsPermutation(res.Solution) {
		t.Fatalf("solution is not a permutation: %v", res.Solution)
	}
}

func TestRunVirtualDeterministic(t *testing.T) {
	opts := Options{Walkers: 4, Seed: 7, Engine: tunedEngine(t, "costas", 9)}
	a, err := RunVirtual(context.Background(), costasFactory(t, 9), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunVirtual(context.Background(), costasFactory(t, 9), opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Winner != b.Winner || a.WinnerIterations != b.WinnerIterations || a.TotalIterations != b.TotalIterations {
		t.Fatalf("RunVirtual not deterministic: %+v vs %+v", a, b)
	}
}

// TestRunVirtualParallelNeverSlower exploits prefix-stable walker seeds:
// walker 0 of a k-walk run is identical to the single walker of a k=1
// run, so min over k walkers can never exceed the k=1 iteration count.
// This is the algorithmic heart of the paper's speedup.
func TestRunVirtualParallelNeverSlower(t *testing.T) {
	f := costasFactory(t, 10)
	eng := tunedEngine(t, "costas", 10)
	for _, seed := range []uint64{1, 2, 3} {
		solo, err := RunVirtual(context.Background(), f, Options{Walkers: 1, Seed: seed, Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		multi, err := RunVirtual(context.Background(), f, Options{Walkers: 8, Seed: seed, Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		if !solo.Solved || !multi.Solved {
			t.Fatalf("seed %d: solo solved=%v multi solved=%v", seed, solo.Solved, multi.Solved)
		}
		if multi.WinnerIterations > solo.WinnerIterations {
			t.Fatalf("seed %d: 8 walkers took %d iterations, single walker %d",
				seed, multi.WinnerIterations, solo.WinnerIterations)
		}
	}
}

func TestRunConcurrentSolves(t *testing.T) {
	opts := Options{
		Walkers: 4,
		Seed:    13,
		Engine:  tunedEngine(t, "costas", 10),
	}
	res, err := Run(context.Background(), costasFactory(t, 10), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("not solved: %+v", res)
	}
	p, _ := problems.NewCostas(10)
	if !p.Verify(res.Solution) {
		t.Fatalf("invalid solution: %v", res.Solution)
	}
	if res.Elapsed <= 0 {
		t.Fatal("Elapsed not recorded")
	}
}

func TestRunHonorsContextTimeout(t *testing.T) {
	// magic-square side 3 is solvable, but give it an impossible budget:
	// a 1ms deadline must abort the run unsolved without error.
	f, err := problems.NewFactory("magic-square", 20)
	if err != nil {
		t.Fatal(err)
	}
	eng := tunedEngine(t, "magic-square", 20)
	eng.CheckEvery = 16
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	res, err := Run(ctx, f, Options{Walkers: 3, Seed: 1, Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	if res.Solved {
		t.Skip("solved within 1ms — machine faster than expected")
	}
	if res.Winner != -1 || res.Solution != nil {
		t.Fatalf("unsolved result carries winner/solution: %+v", res)
	}
}

func TestOptionValidation(t *testing.T) {
	f := costasFactory(t, 8)
	if _, err := Run(context.Background(), f, Options{Walkers: 0}); err == nil {
		t.Error("Walkers=0 accepted")
	}
	if _, err := Run(context.Background(), nil, Options{Walkers: 1}); err == nil {
		t.Error("nil factory accepted")
	}
	if _, err := RunVirtual(context.Background(), nil, Options{Walkers: 1}); err == nil {
		t.Error("RunVirtual nil factory accepted")
	}
	bad := Options{Walkers: 2, Exchange: ExchangeOptions{Enabled: true, AdoptFactor: 0.5}}
	if _, err := Run(context.Background(), f, bad); err == nil {
		t.Error("AdoptFactor < 1 accepted")
	}
	bad2 := Options{Walkers: 2, Exchange: ExchangeOptions{Enabled: true, PerturbSwaps: -1}}
	if _, err := Run(context.Background(), f, bad2); err == nil {
		t.Error("negative PerturbSwaps accepted")
	}
	bad3 := Options{Walkers: 2, Exchange: ExchangeOptions{Enabled: true, Period: -5}}
	if _, err := Run(context.Background(), f, bad3); err == nil {
		t.Error("negative Period accepted")
	}
	if _, err := RunVirtual(context.Background(), f, Options{Walkers: 2, Exchange: ExchangeOptions{Enabled: true}}); err == nil {
		t.Error("RunVirtual with Exchange accepted")
	}
}

func TestFactoryErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	f := core.FactoryFunc(func() (core.Problem, error) { return nil, boom })
	if _, err := Run(context.Background(), f, Options{Walkers: 2}); !errors.Is(err, boom) {
		t.Fatalf("factory error not propagated: %v", err)
	}
	if _, err := RunVirtual(context.Background(), f, Options{Walkers: 2}); !errors.Is(err, boom) {
		t.Fatalf("RunVirtual factory error not propagated: %v", err)
	}
}

func TestAllWalkersFailGivesNoWinner(t *testing.T) {
	// langford 9 does not exist (9 mod 4 == 1)... the factory rejects
	// it, so instead bound the budget so tightly nothing solves.
	f := costasFactory(t, 14)
	eng := tunedEngine(t, "costas", 14)
	eng.MaxIterations = 2
	eng.MaxRuns = 1
	res, err := RunVirtual(context.Background(), f, Options{Walkers: 3, Seed: 3, Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	if res.Solved || res.Winner != -1 || res.Solution != nil {
		t.Fatalf("expected total failure, got %+v", res)
	}
	if res.TotalIterations == 0 {
		t.Fatal("walkers did no work")
	}
}

func TestExchangeRunSolves(t *testing.T) {
	opts := Options{
		Walkers: 4,
		Seed:    21,
		Engine:  tunedEngine(t, "costas", 10),
		Exchange: ExchangeOptions{
			Enabled:     true,
			Period:      256,
			AdoptFactor: 1.5,
		},
	}
	res, err := Run(context.Background(), costasFactory(t, 10), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("dependent multi-walk failed to solve: %+v", res)
	}
	p, _ := problems.NewCostas(10)
	if !p.Verify(res.Solution) {
		t.Fatalf("invalid solution: %v", res.Solution)
	}
}

func TestWalkerSeedsPrefixStableAndDistinct(t *testing.T) {
	s8 := walkerSeeds(99, 8)
	s3 := walkerSeeds(99, 3)
	for i := range s3 {
		if s3[i] != s8[i] {
			t.Fatalf("walker seeds are not prefix-stable at %d", i)
		}
	}
	seen := map[uint64]bool{}
	for _, s := range s8 {
		if seen[s] {
			t.Fatal("duplicate walker seed")
		}
		seen[s] = true
	}
}

func TestBoardPublishSnapshot(t *testing.T) {
	b := NewLocalBoard()
	if _, _, ok := b.Snapshot(); ok {
		t.Fatal("empty board reported valid state")
	}
	b.Publish(10, []int{2, 0, 1})
	cost, cfg, ok := b.Snapshot()
	if !ok || cost != 10 || len(cfg) != 3 {
		t.Fatalf("snapshot = %d %v %v", cost, cfg, ok)
	}
	b.Publish(20, []int{0, 1, 2}) // worse: must not replace
	cost, cfg, _ = b.Snapshot()
	if cost != 10 || cfg[0] != 2 {
		t.Fatalf("worse publish replaced best: %d %v", cost, cfg)
	}
	b.Publish(5, []int{1, 2, 0})
	cost, cfg, _ = b.Snapshot()
	if cost != 5 || cfg[0] != 1 {
		t.Fatalf("better publish ignored: %d %v", cost, cfg)
	}
	// Snapshot must return a private copy.
	cfg[0] = 99
	_, cfg2, _ := b.Snapshot()
	if cfg2[0] == 99 {
		t.Fatal("snapshot aliases board state")
	}
}

func TestMonitorDirectives(t *testing.T) {
	b := NewLocalBoard()
	stat := &WalkerStat{}
	x := ExchangeOptions{Enabled: true, Period: 100, AdoptFactor: 2, PerturbSwaps: 2}
	mp, _ := problems.NewQueens(8)
	mon := boardMonitor(b, stat, x, mp, 42)

	cfg := []int{0, 1, 2, 3, 4, 5, 6, 7}
	// First call publishes my state; board best = my cost: no directive.
	if d := mon(100, 10, cfg); d.Stop || d.Restart || d.SetConfig != nil {
		t.Fatalf("unexpected directive on first publish: %+v", d)
	}
	// Within the period: no work.
	if d := mon(150, 10, cfg); d.Stop || d.SetConfig != nil {
		t.Fatalf("period not honored: %+v", d)
	}
	// Another walker posts a much better cost; I should adopt.
	b.Publish(3, []int{7, 6, 5, 4, 3, 2, 1, 0})
	d := mon(250, 10, cfg)
	if d.SetConfig == nil {
		t.Fatalf("lagging walker did not adopt: %+v", d)
	}
	if !perm.IsPermutation(d.SetConfig) {
		t.Fatalf("adopted config is not a permutation: %v", d.SetConfig)
	}
	if stat.Adoptions != 1 {
		t.Fatalf("Adoptions = %d, want 1", stat.Adoptions)
	}
	// Someone solved: I should stop, and the stat must record the stop
	// as a yield (solved elsewhere), not look like an external cancel.
	b.Publish(0, []int{7, 6, 5, 4, 3, 2, 1, 0})
	if d := mon(400, 10, cfg); !d.Stop {
		t.Fatalf("walker did not stop after a solution was posted: %+v", d)
	}
	if !stat.Yielded {
		t.Fatal("solved-elsewhere stop did not mark the walker Yielded")
	}
}

func TestAggregateUnsolved(t *testing.T) {
	stats := []WalkerStat{
		{Walker: 0, Result: core.Result{Iterations: 10}},
		{Walker: 1, Result: core.Result{Iterations: 20}},
	}
	res := aggregate(stats, virtualWinner)
	if res.Solved || res.Winner != -1 || res.TotalIterations != 30 {
		t.Fatalf("bad aggregate: %+v", res)
	}
}

// TestVirtualWinnerTieBreak: equal-iteration solved walkers must
// resolve deterministically to the lowest index, so virtual runs stay
// reproducible when iteration counts collide.
func TestVirtualWinnerTieBreak(t *testing.T) {
	stats := []WalkerStat{
		{Walker: 0, Result: core.Result{Iterations: 50}},
		{Walker: 1, Result: core.Result{Solved: true, Iterations: 42}},
		{Walker: 2, Result: core.Result{Solved: true, Iterations: 42}},
		{Walker: 3, Result: core.Result{Solved: true, Iterations: 42}},
	}
	if w := virtualWinner(stats); w != 1 {
		t.Fatalf("virtualWinner = %d, want 1 (lowest index among equal-iteration walkers)", w)
	}
	// An unsolved walker with fewer iterations must not win.
	stats[0].Result.Iterations = 1
	if w := virtualWinner(stats); w != 1 {
		t.Fatalf("virtualWinner = %d, want 1 (unsolved walkers never win)", w)
	}
	// A strictly faster solved walker beats the tie pool.
	stats[3].Result.Iterations = 41
	if w := virtualWinner(stats); w != 3 {
		t.Fatalf("virtualWinner = %d, want 3", w)
	}
}
