package multiwalk

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/problems"
)

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

// portfolioOptions builds a two-strategy portfolio over the tuned
// engine options for a benchmark.
func portfolioOptions(t *testing.T, name string, size, walkers int, seed uint64) Options {
	t.Helper()
	eng := tunedEngine(t, name, size)
	adaptive := eng
	adaptive.Strategy = core.StrategyAdaptive
	metro := eng
	metro.Strategy = core.StrategyMetropolis
	return Options{
		Walkers: walkers,
		Seed:    seed,
		Portfolio: []PortfolioEntry{
			{Weight: 2, Engine: adaptive},
			{Weight: 1, Engine: metro},
		},
	}
}

// TestPortfolioPatternAssignment: weights expand into the documented
// repeating round-robin pattern.
func TestPortfolioPatternAssignment(t *testing.T) {
	entries := []PortfolioEntry{{Weight: 2}, {Weight: 1}, {Weight: 3}}
	pat := portfolioPattern(entries, 12)
	want := []int{0, 0, 1, 2, 2, 2}
	if len(pat) != len(want) {
		t.Fatalf("pattern = %v, want %v", pat, want)
	}
	for i := range want {
		if pat[i] != want[i] {
			t.Fatalf("pattern = %v, want %v", pat, want)
		}
	}
	o := &Options{Portfolio: entries}
	for w := 0; w < 12; w++ {
		_, entry := o.engineFor(pat, w)
		if entry != want[w%len(want)] {
			t.Fatalf("walker %d assigned entry %d, want %d", w, entry, want[w%len(want)])
		}
	}
	// Homogeneous runs resolve to Engine with entry -1.
	ho := &Options{Engine: core.Options{Seed: 9}}
	eo, entry := ho.engineFor(nil, 3)
	if entry != -1 || eo.Seed != 9 {
		t.Fatalf("homogeneous engineFor = (%+v, %d)", eo, entry)
	}
}

// TestPortfolioRunVirtualMixesStrategies: a heterogeneous virtual run
// must assign both strategies, solve, and be bit-for-bit reproducible
// for a fixed seed — the acceptance bar for portfolio support.
func TestPortfolioRunVirtualMixesStrategies(t *testing.T) {
	opts := portfolioOptions(t, "costas", 10, 6, 17)
	a, err := RunVirtual(context.Background(), costasFactory(t, 10), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Solved {
		t.Fatalf("portfolio run unsolved: %+v", a)
	}
	seen := map[string]int{}
	for _, s := range a.Walkers {
		if s.Entry < 0 || s.Entry > 1 {
			t.Fatalf("walker %d has entry %d outside the portfolio", s.Walker, s.Entry)
		}
		seen[s.Result.Strategy]++
	}
	if seen[core.StrategyAdaptive] != 4 || seen[core.StrategyMetropolis] != 2 {
		t.Fatalf("strategy mix = %v, want 4 adaptive + 2 metropolis", seen)
	}
	b, err := RunVirtual(context.Background(), costasFactory(t, 10), opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Winner != b.Winner || a.WinnerIterations != b.WinnerIterations || a.TotalIterations != b.TotalIterations {
		t.Fatalf("portfolio RunVirtual not reproducible: %+v vs %+v", a, b)
	}
}

// TestPortfolioRunConcurrent: the wall-clock path must complete and
// verify with a mixed portfolio too.
func TestPortfolioRunConcurrent(t *testing.T) {
	opts := portfolioOptions(t, "costas", 10, 4, 23)
	res, err := Run(context.Background(), costasFactory(t, 10), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("portfolio run unsolved: %+v", res)
	}
	p, _ := problems.NewCostas(10)
	if !p.Verify(res.Solution) {
		t.Fatalf("invalid solution: %v", res.Solution)
	}
}

// TestPortfolioHomogeneousEquivalence: a single-entry portfolio must
// reproduce the homogeneous run exactly (same seeds, same options).
func TestPortfolioHomogeneousEquivalence(t *testing.T) {
	eng := tunedEngine(t, "costas", 9)
	base := Options{Walkers: 4, Seed: 7, Engine: eng}
	port := Options{Walkers: 4, Seed: 7, Portfolio: []PortfolioEntry{{Weight: 1, Engine: eng}}}
	a, err := RunVirtual(context.Background(), costasFactory(t, 9), base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunVirtual(context.Background(), costasFactory(t, 9), port)
	if err != nil {
		t.Fatal(err)
	}
	if a.Winner != b.Winner || a.WinnerIterations != b.WinnerIterations || a.TotalIterations != b.TotalIterations {
		t.Fatalf("single-entry portfolio diverges from homogeneous run: %+v vs %+v", a, b)
	}
}

// TestPortfolioValidation: negative weights and over-weight portfolios
// are rejected; zero weights count as 1; the caller's entries are
// never mutated.
func TestPortfolioValidation(t *testing.T) {
	f := costasFactory(t, 8)
	bad := Options{Walkers: 2, Portfolio: []PortfolioEntry{{Weight: -1}}}
	if _, err := Run(context.Background(), f, bad); err == nil {
		t.Error("negative portfolio weight accepted")
	}
	eng := tunedEngine(t, "costas", 8)
	over := Options{Walkers: 2, Seed: 3, Portfolio: []PortfolioEntry{
		{Weight: 2, Engine: eng},
		{Weight: 1, Engine: eng},
	}}
	if _, err := RunVirtual(context.Background(), f, over); err == nil {
		t.Error("portfolio with an unreachable tail entry accepted")
	}
	// Summed weights may exceed Walkers as long as every entry gets at
	// least one walker: walkers 0..3 land on pattern slots [0,0,0,1].
	partial := Options{Walkers: 4, Seed: 3, Portfolio: []PortfolioEntry{
		{Weight: 3, Engine: eng},
		{Weight: 2, Engine: eng},
	}}
	res4, err := RunVirtual(context.Background(), f, partial)
	if err != nil {
		t.Fatalf("reachable over-weight portfolio rejected: %v", err)
	}
	seen := map[int]int{}
	for _, s := range res4.Walkers {
		seen[s.Entry]++
	}
	if seen[0] != 3 || seen[1] != 1 {
		t.Fatalf("walker shares = %v, want entry0=3 entry1=1", seen)
	}
	zero := Options{Walkers: 2, Seed: 3, Portfolio: []PortfolioEntry{{Weight: 0, Engine: eng}}}
	res, err := RunVirtual(context.Background(), f, zero)
	if err != nil {
		t.Fatalf("zero weight (counts as 1) rejected: %v", err)
	}
	if !res.Solved {
		t.Fatalf("zero-weight portfolio run unsolved: %+v", res)
	}
	if zero.Portfolio[0].Weight != 0 {
		t.Fatalf("RunVirtual mutated the caller's PortfolioEntry.Weight to %d", zero.Portfolio[0].Weight)
	}
}

// TestPortfolioUnknownStrategyPropagates: a portfolio entry naming an
// unregistered strategy must surface core's validation error — and in
// the concurrent Run, a failing walker cancels its siblings instead of
// letting them burn the deadline first.
func TestPortfolioUnknownStrategyPropagates(t *testing.T) {
	eng := tunedEngine(t, "costas", 8)
	eng.Strategy = "no-such-strategy"
	opts := Options{Walkers: 2, Seed: 1, Portfolio: []PortfolioEntry{{Engine: eng}}}
	if _, err := RunVirtual(context.Background(), costasFactory(t, 8), opts); err == nil {
		t.Fatal("unknown strategy in portfolio accepted")
	}

	// Mixed portfolio: one healthy unsolvable walker (tiny budget would
	// end it, but give it a huge one), one broken entry. The broken
	// walker's error must cancel the healthy one promptly.
	healthy := tunedEngine(t, "costas", 8)
	healthy.MaxIterations = 1 << 40
	mixed := Options{Walkers: 2, Seed: 1, Portfolio: []PortfolioEntry{
		{Engine: healthy},
		{Engine: eng},
	}}
	done := make(chan error, 1)
	go func() {
		_, err := Run(context.Background(), costasFactory(t, 8), mixed)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("unknown strategy in concurrent portfolio accepted")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("walker error did not cancel the surviving walkers")
	}
}

// TestPortfolioHugeWeightNoBlowup: validate accepts an arbitrarily
// large weight on the last reachable entry; the pattern expansion must
// stay bounded by the walker count instead of materializing the full
// weight sum.
func TestPortfolioHugeWeightNoBlowup(t *testing.T) {
	entries := []PortfolioEntry{{Weight: 1}, {Weight: 1 << 40}}
	pat := portfolioPattern(entries, 3)
	if len(pat) != 3 {
		t.Fatalf("pattern length = %d, want 3 (capped at walkers)", len(pat))
	}
	want := []int{0, 1, 1}
	for i := range want {
		if pat[i] != want[i] {
			t.Fatalf("pattern = %v, want %v", pat, want)
		}
	}
	o := &Options{Walkers: 3, Portfolio: entries}
	if err := o.Validate(); err != nil {
		t.Fatalf("huge last-entry weight rejected: %v", err)
	}
}
