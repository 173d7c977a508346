package multiwalk

import (
	"context"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/perm"
	"repro/internal/problems"
)

// inversionsProblem is a synthetic engine problem built for exchange
// tests: the cost is the permutation's inversion count plus one. The
// +1 makes it unsolvable — no walker can ever post cost 0, so a run
// always burns its full budget and the exchange board stays busy for
// the whole run — while the inversion landscape gives every walker a
// long, steady descent: a walker that starts later, or polls while
// behind, lags the board's best by a wide margin.
type inversionsProblem struct{ n int }

func (p inversionsProblem) Size() int { return p.n }

func (p inversionsProblem) Cost(cfg []int) int {
	inv := 0
	for i := 0; i < len(cfg); i++ {
		for j := i + 1; j < len(cfg); j++ {
			if cfg[i] > cfg[j] {
				inv++
			}
		}
	}
	return inv + 1
}

func (p inversionsProblem) CostOnVariable(cfg []int, i int) int {
	e := 0
	for j := 0; j < len(cfg); j++ {
		if j < i && cfg[j] > cfg[i] {
			e++
		}
		if j > i && cfg[i] > cfg[j] {
			e++
		}
	}
	return e
}

func (p inversionsProblem) CostIfSwap(cfg []int, cost, i, j int) int {
	cfg[i], cfg[j] = cfg[j], cfg[i]
	c := p.Cost(cfg)
	cfg[i], cfg[j] = cfg[j], cfg[i]
	return c
}

// The rest of the permutation contract, from the references: the error
// vector and the swap row are recomputed on every call, so there is no
// incremental state for ExecutedSwap to update.

func (p inversionsProblem) LiveErrors(cfg []int) []int {
	errs := make([]int, len(cfg))
	for i := range errs {
		errs[i] = p.CostOnVariable(cfg, i)
	}
	return errs
}

func (p inversionsProblem) CostsIfSwapAll(cfg []int, cost, i int, out []int) {
	for j := range out {
		out[j] = p.CostIfSwap(cfg, cost, i, j)
	}
	out[i] = cost
}

func (inversionsProblem) ExecutedSwap([]int, int, int) {}

// TestExchangeCadenceNotQuantized is the regression test for the
// silent Period-quantization bug: the engine polls its Monitor every
// CheckEvery iterations (default 64), so an Exchange.Period below that
// used to degrade to CheckEvery with no diagnostic. runWalker now
// tightens the poll period for exchange-enabled walkers; the chained
// Progress hook observes the effective cadence.
func TestExchangeCadenceNotQuantized(t *testing.T) {
	factory := func() (core.Problem, error) { return inversionsProblem{n: 24}, nil }
	var mu sync.Mutex
	var polls []int64
	opts := Options{
		Walkers: 1,
		Seed:    7,
		Engine:  core.Options{MaxIterations: 64, MaxRuns: 1}, // CheckEvery 0 -> engine default 64
		Exchange: ExchangeOptions{
			Enabled: true,
			Period:  8,
		},
		Progress: func(_ int, iter int64, _ int) {
			mu.Lock()
			polls = append(polls, iter)
			mu.Unlock()
		},
	}
	if _, err := Run(context.Background(), factory, opts); err != nil {
		t.Fatal(err)
	}
	if len(polls) == 0 {
		t.Fatal("no monitor polls in 64 iterations")
	}
	if polls[0] != 8 {
		t.Fatalf("first poll at iteration %d, want 8 (Period=8 silently quantized to CheckEvery)", polls[0])
	}
	if len(polls) != 8 {
		t.Fatalf("got %d polls over 64 iterations with Period=8, want 8: %v", len(polls), polls)
	}

	// Independent walkers must keep the engine's own cadence: the clamp
	// applies only when a board is in play.
	polls = nil
	opts.Exchange = ExchangeOptions{}
	if _, err := Run(context.Background(), factory, opts); err != nil {
		t.Fatal(err)
	}
	if len(polls) != 1 || polls[0] != 64 {
		t.Fatalf("independent walker polls moved: %v, want [64]", polls)
	}
}

// TestBoardPublishLengthGuard pins the publish truncation fix: the
// board's stored configuration must always match the winning publish,
// even when callers disagree on n (the old code allocated at the first
// caller's length and silently truncated longer configurations).
func TestBoardPublishLengthGuard(t *testing.T) {
	b := NewLocalBoard()
	b.Publish(5, []int{3, 2, 1, 0})
	long := []int{7, 6, 5, 4, 3, 2, 1, 0}
	b.Publish(3, long)
	cost, cfg, ok := b.Snapshot()
	if !ok || cost != 3 {
		t.Fatalf("snapshot = %d %v %v, want cost 3", cost, cfg, ok)
	}
	if len(cfg) != len(long) {
		t.Fatalf("stored config truncated to %d values, want %d", len(cfg), len(long))
	}
	for i, v := range long {
		if cfg[i] != v {
			t.Fatalf("stored config corrupted at %d: %v", i, cfg)
		}
	}
	// Shrinking is symmetric: the cell re-fits, never aliases stale tail
	// values.
	b.Publish(1, []int{1, 0})
	if cost, cfg, _ := b.Snapshot(); cost != 1 || len(cfg) != 2 || cfg[0] != 1 || cfg[1] != 0 {
		t.Fatalf("shrinking publish mishandled: %d %v", cost, cfg)
	}
}

// TestYieldedWalkerDistinguishableFromCancelled drives the full engine
// path: a walker whose board already shows best cost 0 must stop as
// Yielded — reported Interrupted by the engine, but distinguishable
// from a context cancel in dependent-run accounting.
func TestYieldedWalkerDistinguishableFromCancelled(t *testing.T) {
	factory := func() (core.Problem, error) { return inversionsProblem{n: 24}, nil }
	board := NewLocalBoard()
	board.Publish(0, identityPerm(24)) // someone else already won
	eo := core.Options{MaxIterations: 1000, MaxRuns: 1, CheckEvery: 4}
	exch := ExchangeOptions{Enabled: true, Period: 4, AdoptFactor: 2}
	stat, err := runWalker(context.Background(), factory, eo, exch, 0, 11, board, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !stat.Yielded {
		t.Fatalf("walker did not yield to the posted win: %+v", stat)
	}
	if !stat.Result.Interrupted {
		t.Fatalf("yielded walker should surface as Interrupted at the engine level: %+v", stat.Result)
	}
	if stat.Result.Iterations >= 1000 {
		t.Fatalf("yielded walker burned its whole budget: %d iterations", stat.Result.Iterations)
	}

	// Contrast: a genuinely cancelled walker is Interrupted but NOT
	// Yielded.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	stat2, err := runWalker(cancelled, factory, eo, exch, 0, 11, NewLocalBoard(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !stat2.Result.Interrupted || stat2.Yielded {
		t.Fatalf("cancelled walker accounting wrong: %+v", stat2)
	}
}

// TestSolvedWalkerPublishesWin: a walker that solves must post (0,
// solution) to the board so siblings (and, through a distributed
// board, other workers) can stand down.
func TestSolvedWalkerPublishesWin(t *testing.T) {
	f := costasFactory(t, 8)
	eo := tunedEngine(t, "costas", 8)
	sol := solveOnce(t, f, eo, 5)

	board := NewLocalBoard()
	eo.InitialConfig = sol // solves on iteration zero
	exch := ExchangeOptions{Enabled: true, Period: 64, AdoptFactor: 2}
	stat, err := runWalker(context.Background(), f, eo, exch, 0, 5, board, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !stat.Result.Solved {
		t.Fatalf("walker did not solve from a solved initial config: %+v", stat.Result)
	}
	cost, cfg, ok := board.Snapshot()
	if !ok || cost != 0 || len(cfg) != 8 {
		t.Fatalf("win not published to board: cost=%d cfg=%v ok=%v", cost, cfg, ok)
	}
}

// TestShardedExchangeSharedBoard is the in-process model of the
// cross-worker scheme: two shards of one job executed separately
// against one shared Board cooperate — the shard that runs second
// adopts elite configurations published by the first, which a
// shard-private board could never provide. It also pins the validation
// rules around Options.Board.
func TestShardedExchangeSharedBoard(t *testing.T) {
	factory := func() (core.Problem, error) { return inversionsProblem{n: 24}, nil }
	engine := core.Options{MaxIterations: 600, MaxRuns: 1, CheckEvery: 4}
	exch := ExchangeOptions{Enabled: true, Period: 4, AdoptFactor: 1.0}

	// Sharded exchange without a shared board stays rejected.
	noBoard := Options{Walkers: 1, Seed: 99, Engine: engine,
		Shard: &Shard{Start: 0, Total: 2}, Exchange: exch}
	if _, err := Run(context.Background(), factory, noBoard); err == nil {
		t.Fatal("sharded Exchange without a Board accepted")
	}
	// A board without the exchange scheme is a configuration error.
	if _, err := Run(context.Background(), factory, Options{Walkers: 1, Seed: 99,
		Engine: engine, Board: NewLocalBoard()}); err == nil {
		t.Fatal("Board without Exchange accepted")
	}

	board := NewLocalBoard()
	shardOpts := func(start int) Options {
		return Options{Walkers: 1, Seed: 99, Engine: engine,
			Shard: &Shard{Start: start, Total: 2}, Exchange: exch, Board: board}
	}
	// The first shard runs to its budget and leaves its descent on the
	// board; the second starts far above it.
	s0, err := Run(context.Background(), factory, shardOpts(0))
	if err != nil {
		t.Fatal(err)
	}
	s1, err := Run(context.Background(), factory, shardOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := s1.Walkers[0].Adoptions; got == 0 {
		t.Fatal("second shard never adopted the first shard's elite: the board did not cross the shard boundary")
	}
	combined, err := CombineShards(2, s0, s1)
	if err != nil {
		t.Fatal(err)
	}
	if combined.Adoptions != s0.Adoptions+s1.Adoptions {
		t.Fatalf("combined Adoptions = %d, want %d", combined.Adoptions, s0.Adoptions+s1.Adoptions)
	}
	if combined.Walkers[1].Walker != 1 || combined.Walkers[1].Adoptions != s1.Walkers[0].Adoptions {
		t.Fatalf("walker identity lost in combination: %+v", combined.Walkers[1])
	}
}

// laggardProblem is inversionsProblem with a flat per-variable error:
// every variable ties, so worst-variable selection draws a uniformly
// random non-frozen one and a walker on it descends the inversions
// landscape far more slowly than one that moves the worst variable.
type laggardProblem struct{ inversionsProblem }

func (laggardProblem) CostOnVariable([]int, int) int { return 0 }
func (laggardProblem) LiveErrors(cfg []int) []int    { return make([]int, len(cfg)) }

// TestExchangeAdoptionHeterogeneousPortfolio covers the interaction
// the exchange scheme was designed around: weaker walkers lag far
// enough behind the board's best to trip the AdoptFactor threshold and
// adopt the stronger walkers' elite. Leaders and laggards are the two
// shards of one four-walker job sharing one board, as workers share
// the coordinator's; the leader shard runs to its budget first, so the
// laggards start with its elite already on the board.
func TestExchangeAdoptionHeterogeneousPortfolio(t *testing.T) {
	board := NewLocalBoard()
	shard := func(start int, factory Factory) Result {
		t.Helper()
		res, err := Run(context.Background(), factory, Options{
			Walkers:  2,
			Seed:     424242,
			Engine:   core.Options{MaxIterations: 600, MaxRuns: 1, CheckEvery: 4},
			Exchange: ExchangeOptions{Enabled: true, Period: 4, AdoptFactor: 1.0},
			Shard:    &Shard{Start: start, Total: 4},
			Board:    board,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Solved {
			t.Fatalf("inversions+1 cannot be solved, got %+v", res)
		}
		if len(res.Walkers) != 2 {
			t.Fatalf("expected 2 walker stats, got %d", len(res.Walkers))
		}
		for w, ws := range res.Walkers {
			if ws.Walker != start+w {
				t.Fatalf("walker %d: stat reports walker %d", start+w, ws.Walker)
			}
		}
		return res
	}
	leaders := shard(0, func() (core.Problem, error) { return inversionsProblem{n: 24}, nil })
	laggards := shard(2, func() (core.Problem, error) { return laggardProblem{inversionsProblem{n: 24}}, nil })
	if leaders.Adoptions+laggards.Adoptions == 0 {
		t.Fatal("AdoptFactor=1.0 with leader and laggard shards produced no adoptions")
	}
	if laggards.Adoptions == 0 {
		t.Fatal("laggards never adopted the leaders' elite")
	}
}

// TestExchangeAdoptFactorGatesAdoption: on the inversions landscape
// four concurrent walkers polling every four iterations adopt at
// AdoptFactor 1.0, where any walker behind the board's best lags, and
// never at an AdoptFactor no cost can exceed: the threshold is what
// licenses teleports.
func TestExchangeAdoptFactorGatesAdoption(t *testing.T) {
	factory := func() (core.Problem, error) { return inversionsProblem{n: 24}, nil }
	run := func(adoptFactor float64) Result {
		res, err := Run(context.Background(), factory, Options{
			Walkers:  4,
			Seed:     424242,
			Engine:   core.Options{MaxIterations: 600, MaxRuns: 1, CheckEvery: 4},
			Exchange: ExchangeOptions{Enabled: true, Period: 4, AdoptFactor: adoptFactor},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Solved {
			t.Fatalf("inversions+1 cannot be solved, got %+v", res)
		}
		return res
	}
	if res := run(1.0); res.Adoptions == 0 {
		t.Fatal("AdoptFactor=1.0 produced no adoptions")
	}
	for w, ws := range run(1e9).Walkers {
		if ws.Adoptions != 0 {
			t.Fatalf("walker %d adopted %d times despite AdoptFactor=1e9", w, ws.Adoptions)
		}
	}
}

// TestExchangeAdoptThresholdBoundary pins the strictly-greater-than
// adoption rule at the boundary, deterministically, through the board
// monitor itself: cost == AdoptFactor*best must not adopt, one above
// must.
func TestExchangeAdoptThresholdBoundary(t *testing.T) {
	b := NewLocalBoard()
	elite := []int{7, 6, 5, 4, 3, 2, 1, 0}
	b.Publish(5, elite)

	stat := &WalkerStat{}
	x := ExchangeOptions{Enabled: true, Period: 10, AdoptFactor: 2, PerturbSwaps: 3}
	mp, _ := problems.NewQueens(8)
	mon := boardMonitor(b, stat, x, mp, 1)

	cfg := []int{0, 1, 2, 3, 4, 5, 6, 7}
	// cost 10 == 2*5: on the boundary, not strictly lagging.
	if d := mon(10, 10, cfg); d.SetConfig != nil || stat.Adoptions != 0 {
		t.Fatalf("boundary cost adopted: %+v (adoptions %d)", d, stat.Adoptions)
	}
	// cost 11 > 2*5: adopt, with a perturbed copy of the elite.
	d := mon(20, 11, cfg)
	if d.SetConfig == nil || stat.Adoptions != 1 {
		t.Fatalf("lagging cost did not adopt: %+v (adoptions %d)", d, stat.Adoptions)
	}
	if !perm.IsPermutation(d.SetConfig) {
		t.Fatalf("adopted config is not a permutation: %v", d.SetConfig)
	}
	// The teleport hands out a perturbed *copy*; the board's elite must
	// be untouched by the perturbation.
	_, cur, _ := b.Snapshot()
	for i, v := range elite {
		if cur[i] != v {
			t.Fatalf("adoption perturbed the board's elite: %v", cur)
		}
	}
}

// identityPerm returns the identity permutation of n values.
func identityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// solveOnce solves the problem sequentially and returns the solution.
func solveOnce(t *testing.T, f Factory, eo core.Options, seed uint64) []int {
	t.Helper()
	p, err := f()
	if err != nil {
		t.Fatal(err)
	}
	eo.Seed = seed
	res, err := core.Solve(context.Background(), p, eo)
	if err != nil || !res.Solved {
		t.Fatalf("probe solve failed: %v %+v", err, res)
	}
	return res.Solution
}

// TestBoardMonitorFDPerturbation pins the encoding-aware teleport: on a
// finite-domain problem the perturbed elite must stay inside every
// variable's domain (a transposition-based perturbation would not),
// and the board's stored elite must be untouched.
func TestBoardMonitorFDPerturbation(t *testing.T) {
	p, err := problems.NewTimetable(16, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ReduceDomains(); err != nil {
		t.Fatal(err)
	}
	n := p.Size()
	elite := make([]int, n)
	for i := range elite {
		elite[i] = p.Domain(i)[0]
	}
	b := NewLocalBoard()
	b.Publish(1, elite)

	stat := &WalkerStat{}
	x := ExchangeOptions{Enabled: true, Period: 10, AdoptFactor: 2, PerturbSwaps: 5}
	mon := boardMonitor(b, stat, x, p, 3)

	cfg := append([]int(nil), elite...)
	d := mon(10, 50, cfg) // cost 50 > 2*1: adopt
	if d.SetConfig == nil || stat.Adoptions != 1 {
		t.Fatalf("lagging FD walker did not adopt: %+v (adoptions %d)", d, stat.Adoptions)
	}
	if err := core.ValidateFDConfig(p, d.SetConfig); err != nil {
		t.Fatalf("FD perturbation left the domains: %v", err)
	}
	_, cur, _ := b.Snapshot()
	for i, v := range elite {
		if cur[i] != v {
			t.Fatalf("adoption perturbed the board's elite at %d: %v", i, cur)
		}
	}
}

// TestExchangeRunOnFDProblem runs a dependent multi-walk end to end on
// the finite-domain benchmark: teleports must pass the engine's FD
// config validation and the run must still solve.
func TestExchangeRunOnFDProblem(t *testing.T) {
	factory := func() (core.Problem, error) { return problems.NewTimetable(20, nil) }
	probe, err := factory()
	if err != nil {
		t.Fatal(err)
	}
	eng := core.TunedOptions(probe)
	eng.MaxIterations = 20000
	res, err := Run(context.Background(), factory, Options{
		Walkers:  4,
		Seed:     11,
		Engine:   eng,
		Exchange: ExchangeOptions{Enabled: true, Period: 16, AdoptFactor: 1.5, PerturbSwaps: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("dependent FD run unsolved: %+v", res)
	}
	if err := core.ValidateFDConfig(probe.(core.FDProblem), res.Solution); err != nil {
		t.Fatalf("solution outside domains: %v", err)
	}
}
