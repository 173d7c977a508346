// Package multiwalk implements the paper's primary contribution: the
// parallel execution of Adaptive Search in a multiple independent-walk
// manner. k search engines start from different random configurations
// and run with no communication except completion detection — the first
// walker to find a solution stops the rest.
//
// Two execution modes are provided:
//
//   - Run launches one goroutine per walker and measures real wall-clock
//     behaviour; it is the production API and matches the paper's MPI
//     deployment one-to-one (goroutine = MPI process, the run's shared
//     stop flag = the paper's termination detection).
//   - RunVirtual executes the same independent walks sequentially to
//     completion and determines the winner by iteration count. It is
//     deterministic and hardware-independent, and is what the experiment
//     harness uses to reproduce the paper's figures on any machine (see
//     DESIGN.md §2: walk durations in iterations feed the platform
//     simulator).
//
// The package also implements the paper's future-work section — the
// dependent multiple-walk scheme with inter-process communication — as
// an opt-in Exchange policy: walkers periodically publish their cost to
// a shared board and laggards teleport to a perturbed copy of the best
// configuration. The board is pluggable (Board), so the same scheme
// runs across process boundaries: internal/dist connects the walkers of
// every shard of a distributed job through a coordinator-hosted global
// board. The paper conjectures (and EXP-A1 confirms) that this is hard
// pressed to beat the independent scheme.
//
// Every walker runs the same engine options; only its seed differs.
// BENCH_portfolio_vs_adaptive.json measured mixing strategies across
// walkers and found no mix that beats pure adaptive walkers (DESIGN.md
// §5).
package multiwalk

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
)

// Factory is core.Factory: every walker takes an instance of its own
// from it, since problem encodings cache incremental state, and hands
// the instance back once its search has returned normally.
// problems.Resolve returns one; core.FactoryFunc adapts a constructor.
type Factory = core.Factory

// Options configures a multi-walk run.
type Options struct {
	// Walkers is the number of parallel walks k (the paper's core
	// count). Must be >= 1.
	Walkers int

	// Seed seeds the master stream from which every walker derives an
	// independent RNG stream; a run is reproducible given (problem,
	// options, seed) — exactly reproducible for RunVirtual, and up to
	// OS scheduling for the wall-clock winner of Run.
	Seed uint64

	// Engine holds the per-walker engine options. Its Seed is
	// overridden by the multi-walk driver; its Monitor (if any) is
	// chained with the driver's own monitors (Progress, Exchange) and
	// must therefore be safe for concurrent use under Run, where every
	// walker invokes it.
	Engine core.Options

	// Shard, when non-nil, restricts the run to the global walkers
	// [Shard.Start, Shard.Start+Walkers) of a Shard.Total-walker job.
	// Seeds are derived from the *global* walker index, so executing
	// the shards of one job in separate processes and merging their
	// stats with CombineShards is bit-for-bit identical to a
	// single-process run with Walkers = Shard.Total and no Shard (see
	// internal/dist). nil runs the whole job locally.
	Shard *Shard

	// Exchange enables the dependent multi-walk scheme. The zero value
	// keeps walks fully independent, as in the paper's experiments.
	// Exchange needs a shared elite board: a whole-job run gets a
	// private in-process one automatically, while a sharded run must be
	// handed the job-wide Board (the shards live in different processes
	// whose walkers would otherwise cooperate only within their shard).
	Exchange ExchangeOptions

	// Board, when non-nil, supplies the exchange scheme's shared elite
	// board in place of the run's private in-process one. This is the
	// seam that lifts the dependent scheme across process boundaries:
	// an internal/dist worker passes each exchange shard a board of the
	// run's own, which the coordinator's relay calls publish the job's
	// best into and read the shard's best out of, so publishes and
	// snapshots stay in-memory on the hot path and no walker touches
	// the network. Setting Board requires Exchange.Enabled and is
	// mandatory for sharded exchange runs.
	Board Board

	// Progress, when non-nil, is invoked from each walker every
	// Engine.CheckEvery iterations with the walker index, the walker's
	// cumulative iteration count and its current cost. Walkers run
	// concurrently under Run, so the callback must be safe for
	// concurrent use; calls for one walker are always sequential. This
	// is the hook the solve service uses for live throughput metrics.
	// It composes with (does not replace) any Monitor set on the engine
	// options and with the Exchange scheme's internal monitor.
	Progress func(walker int, iter int64, cost int)
}

// Shard identifies a contiguous slice of the walkers of a larger
// logical job. Walker identity — the seed stream and the
// WalkerStat.Walker index — is always derived from the global
// index Start+i, never from the shard-local position, which is what
// makes distributed execution reproduce the single-process run.
type Shard struct {
	// Start is the global index of the shard's first walker.
	Start int
	// Total is the whole job's walker count (across all shards).
	Total int
}

// ExchangeOptions tunes the dependent multiple-walk communication
// scheme (the paper's §3). Communication is deliberately tiny — one
// best-cost integer and, on adoption, one configuration copy — honoring
// the paper's goal of minimizing data transfers. The JSON names are the
// solve service's (a request's "exchange" object) and the distributed
// run request's.
type ExchangeOptions struct {
	// Enabled turns on communication.
	Enabled bool `json:"enabled"`
	// Period is the number of engine iterations between board checks
	// (rounded up to the engine's CheckEvery granularity). 0 selects
	// 1024.
	Period int64 `json:"period_iters,omitempty"`
	// AdoptFactor: a walker whose cost exceeds AdoptFactor times the
	// board's best cost teleports to a perturbed elite configuration.
	// 0 selects 2.0.
	AdoptFactor float64 `json:"adopt_factor,omitempty"`
	// PerturbSwaps is the number of random transpositions applied to an
	// adopted elite configuration, keeping walkers diverse. 0 selects
	// max(2, n/16).
	PerturbSwaps int `json:"perturb_swaps,omitempty"`
}

// Validate checks the exchange tuning invariants, treating 0 as "use
// the default" for every field: Period and PerturbSwaps must be
// non-negative, AdoptFactor must be 0 or >= 1 (NaN rejected). This is
// the single validator every admitting layer shares — Options.Validate
// (and through it the solve service), the dist coordinator and run
// protocol — so the layers cannot drift on what is admissible.
func (x *ExchangeOptions) Validate() error {
	if x.Period < 0 {
		return errors.New("multiwalk: Exchange.Period must be >= 0")
	}
	if math.IsNaN(x.AdoptFactor) || (x.AdoptFactor != 0 && x.AdoptFactor < 1) {
		return errors.New("multiwalk: Exchange.AdoptFactor must be >= 1 (or 0 for the default)")
	}
	if x.PerturbSwaps < 0 {
		return errors.New("multiwalk: Exchange.PerturbSwaps must be >= 0")
	}
	return nil
}

// WalkerStat reports one walker's outcome.
type WalkerStat struct {
	// Walker is the walker index in [0, k).
	Walker int
	// Result is the walker's engine result. In Run, losers are usually
	// Interrupted, and a walker whose goroutine had not started when the
	// run ended never ran: Run records it as Interrupted with zero
	// iterations and Cost core.CostUnknown. In RunVirtual every walker runs to completion
	// unless the context is cancelled mid-sweep, in which case walkers
	// that never ran carry an empty Result marked Interrupted (Cost
	// core.CostUnknown, zero iterations).
	Result core.Result
	// Adoptions counts elite-configuration adoptions offered by the
	// exchange board (dependent mode). A Stop or Restart issued by a
	// chained caller monitor on the same poll can suppress the engine
	// actually executing the teleport, so the count is an upper bound
	// in that (unusual) combination.
	Adoptions int64
	// Yielded reports that the walker stopped itself because the
	// exchange board showed the job solved elsewhere (best cost 0).
	// Such a walker also carries Result.Interrupted, but it was not
	// cancelled: dependent-run accounting uses Yielded to separate
	// "stood down after someone won" from "cut short by the caller".
	Yielded bool
}

// Result aggregates a multi-walk run.
type Result struct {
	// Solved reports whether any walker found a solution.
	Solved bool
	// Winner is the global index of the winning walker, or -1. For a
	// whole-job run (no Shard) it doubles as the index into Walkers;
	// for a shard result it is Walkers[i].Walker of the winning entry.
	Winner int
	// Solution is the winning configuration (nil if unsolved).
	Solution []int
	// WinnerIterations is the winning walker's iteration count — the
	// machine-independent parallel cost of the run, min_k(iters) for
	// RunVirtual.
	WinnerIterations int64
	// TotalIterations sums iterations across all walkers (the parallel
	// work, as opposed to the parallel time).
	TotalIterations int64
	// Adoptions sums elite-configuration adoptions across all walkers.
	// Zero for independent runs; for dependent (Exchange) runs it is
	// the communication scheme's activity measure.
	Adoptions int64
	// Walkers holds per-walker statistics in walker order. For a
	// whole-job run the slice index equals WalkerStat.Walker; a shard
	// result covers only its sub-range, with the global identity in
	// the Walker field.
	Walkers []WalkerStat
	// Completed counts the walkers the run accounted for. Run accounts
	// for every walker — one it never started, because the run ended
	// first, is recorded as interrupted before it began — so there it
	// always equals len(Walkers). A cancelled RunVirtual sweep stops
	// early and leaves Completed < len(Walkers); the unrun tail keeps
	// correct Walker indices and an empty Result marked Interrupted.
	Completed int
	// Truncated reports that the caller's context was cancelled before
	// the sweep finished on its own terms. An unsolved Result with
	// Truncated set means "cancelled mid-sweep", not "unsolved after
	// all walks ran their budgets". In Run the losers' post-solution
	// interruption is the normal completion mechanism and does not
	// count as truncation.
	Truncated bool
	// Elapsed is the wall-clock duration of the whole call.
	Elapsed time.Duration
}

// total returns the whole job's walker count: Shard.Total for a
// sharded run, Walkers otherwise.
func (o *Options) total() int {
	if o.Shard != nil {
		return o.Shard.Total
	}
	return o.Walkers
}

// start returns the global index of the first walker this run executes.
func (o *Options) start() int {
	if o.Shard != nil {
		return o.Shard.Start
	}
	return 0
}

// Validate checks the options that need no problem instance: the walker
// count, the shard range, the board/exchange pairing and the exchange
// tuning when enabled. The engine options themselves are
// core.Options.Validate's to check, which every walker's Solve does.
// The solve service calls Validate at admission, so a request it would
// fail is a 400 and never a late job failure.
func (o *Options) Validate() error {
	if o.Walkers < 1 {
		return fmt.Errorf("multiwalk: Walkers must be >= 1, got %d", o.Walkers)
	}
	if o.Shard != nil {
		// Start > Total-Walkers is the overflow-safe spelling of
		// Start+Walkers > Total (Walkers >= 1 and Total >= 1 are
		// checked first, so the subtraction cannot wrap).
		if o.Shard.Start < 0 || o.Shard.Total < 1 || o.Shard.Start > o.Shard.Total-o.Walkers {
			return fmt.Errorf("multiwalk: shard start=%d walkers=%d outside job of %d walkers", o.Shard.Start, o.Walkers, o.Shard.Total)
		}
		if o.Exchange.Enabled && o.Board == nil {
			return errors.New("multiwalk: sharded Exchange needs the job-wide shared Board (Options.Board); a shard-private board would split the cooperative scheme at process boundaries")
		}
	}
	if o.Board != nil && !o.Exchange.Enabled {
		return errors.New("multiwalk: Board is set but Exchange is not enabled")
	}
	if o.Exchange.Enabled {
		return o.Exchange.Validate()
	}
	return nil
}

// Run executes k independent walks concurrently, one goroutine per
// walker (the caller's own being the last walker's), stopping the
// others as soon as a solution is found ("no communication between the
// simultaneous computations except for completion"). The context
// bounds the whole run.
//
// The stop is one flag the walkers share: the first solution or walker
// error sets it, and every other walker's engine Monitor turns it into
// Directive{Stop} at its next poll, the path a board's "solved
// elsewhere" takes. Once the caller's walker returns with the run over
// (the flag set or a dead context), Run does not wait for spawned
// walkers that have not started: each spawned walker is claimed exactly
// once, by a spawned goroutine before it calls the factory or by Run at
// the end, and a walker Run claims, or one claimed after the flag was
// set, is recorded as never run (see WalkerStat.Result) without
// building its problem. Run waits only for the walkers goroutines
// claimed.
func Run(ctx context.Context, factory Factory, opts Options) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := opts.Validate(); err != nil {
		return Result{}, err
	}
	if factory == nil {
		return Result{}, errors.New("multiwalk: nil factory")
	}

	// The exchange defaults (read only by walkers with a board).
	if opts.Exchange.Period == 0 {
		opts.Exchange.Period = 1024
	}
	if opts.Exchange.AdoptFactor == 0 {
		opts.Exchange.AdoptFactor = 2.0
	}

	start := time.Now()
	// One allocation for what the walkers share: the fields of opts they
	// read, not opts itself, and the claim counter and the stop flag.
	r := &run{
		ctx:      ctx,
		factory:  factory,
		engine:   opts.Engine,
		exchange: opts.Exchange,
		board:    opts.Board,
		progress: opts.Progress,
		first:    opts.start(),
		seeds:    walkerSeeds(opts.Seed, opts.total()),
		stats:    make([]WalkerStat, opts.Walkers),
		errs:     make([]error, opts.Walkers),
	}
	if r.board == nil && opts.Exchange.Enabled {
		r.board = NewLocalBoard()
	}
	// The caller's goroutine is a walker too: it runs the last one
	// itself instead of parking in Wait, so k walkers cost k-1 spawns
	// and a one-walker run starts no goroutine at all, and has no
	// sibling to stop.
	//
	// Each spawned walker is claimed exactly once, by taking the next
	// index: a spawned goroutine takes one, and Run takes all that are
	// left once the run is over. The claimer owns the walker's stat and
	// its Done; a goroutine that finds none left returns without
	// touching the run's state.
	last := opts.Walkers - 1
	r.wg.Add(last)
	for range last {
		go r.spawned(last)
	}
	r.walk(last)
	if r.stop.Load() || ctx.Err() != nil {
		// The run is over: a walker that has not started would only
		// build its problem to see the stop. On a sub-millisecond job
		// that is most spawned walkers (DESIGN.md §7).
		for w := int(r.next.Swap(int64(last))); w < last; w++ {
			r.stats[w] = r.neverRun(w)
			r.wg.Done()
		}
	}
	r.wg.Wait()

	for _, err := range r.errs {
		if err != nil {
			return Result{}, err
		}
	}
	res := aggregate(r.stats, wallClockWinner)
	res.Completed = opts.Walkers
	// Distinguish external cancellation from internal completion
	// detection: losers are stopped by the winner's flag on every
	// solved run, so only an unsolved run whose parent context died was
	// genuinely cut short.
	res.Truncated = ctx.Err() != nil && !res.Solved
	res.Elapsed = time.Since(start)
	return res, nil
}

// run is what the walkers of one Run share.
type run struct {
	ctx      context.Context
	factory  Factory
	engine   core.Options
	exchange ExchangeOptions
	board    Board
	progress func(walker int, iter int64, cost int)
	first    int // global index of walker 0
	seeds    []uint64
	stats    []WalkerStat
	errs     []error

	next atomic.Int64   // the next spawned walker to claim
	wg   sync.WaitGroup // the claimed spawned walkers
	stop atomic.Bool    // set by the first solution or walker error
}

// spawned is a spawned goroutine's body: claim the next walker, if
// Run has not claimed it, and walk it.
func (r *run) spawned(last int) {
	if w := int(r.next.Add(1)) - 1; w < last {
		defer r.wg.Done()
		r.walk(w)
	}
}

// walk runs walker w and, if it solved or failed, sets the stop flag.
// A walker claimed after the flag was set builds nothing.
func (r *run) walk(w int) {
	if r.stop.Load() {
		r.stats[w] = r.neverRun(w)
		return
	}
	g := r.first + w // global walker identity
	var stop *atomic.Bool
	if len(r.stats) > 1 {
		stop = &r.stop
	}
	stat, err := runWalker(r.ctx, r.factory, r.engine, r.exchange, g, r.seeds[g], r.board, r.progress, stop)
	r.stats[w], r.errs[w] = stat, err
	if err != nil || stat.Result.Solved {
		// Completion detection: the first solution wins. A walker
		// error (bad engine options, a factory failure, a panic) also
		// stops the run — the error is returned either way, so letting
		// the healthy walkers burn the deadline first would only delay
		// it.
		r.stop.Store(true)
	}
}

// neverRun is the stat of walker w when it never started: the run was
// over first.
func (r *run) neverRun(w int) WalkerStat {
	return WalkerStat{Walker: r.first + w, Result: core.Result{Interrupted: true, Cost: core.CostUnknown}}
}

// RunVirtual executes the same k independent walks sequentially, each to
// completion, and declares the walker with the fewest iterations the
// winner — the deterministic, hardware-independent view of the
// multi-walk execution used by the experiment harness. The context can
// abort the whole computation; per-walker budgets come from
// opts.Engine. Exchange (dependent mode) is not supported here, since
// communication is meaningful only under concurrent execution.
func RunVirtual(ctx context.Context, factory Factory, opts Options) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Exchange.Enabled {
		return Result{}, errors.New("multiwalk: RunVirtual does not support Exchange; use Run")
	}
	if err := opts.Validate(); err != nil {
		return Result{}, err
	}
	if factory == nil {
		return Result{}, errors.New("multiwalk: nil factory")
	}

	seeds := walkerSeeds(opts.Seed, opts.total())
	start := time.Now()
	stats := make([]WalkerStat, opts.Walkers)
	completed := 0
	truncated := false
	for w := 0; w < opts.Walkers; w++ {
		g := opts.start() + w // global walker identity
		if ctx.Err() != nil {
			// The sweep was cancelled before this walker's turn: keep
			// its index intact and mark the empty result Interrupted so
			// callers can tell "never ran" from "ran and failed".
			stats[w] = WalkerStat{Walker: g, Result: core.Result{Interrupted: true, Cost: core.CostUnknown}}
			truncated = true
			continue
		}
		stat, err := runWalker(ctx, factory, opts.Engine, opts.Exchange, g, seeds[g], nil, opts.Progress, nil)
		if err != nil {
			return Result{}, err
		}
		stats[w] = stat
		completed++
		// Truncation is strictly a context property: a walker may also
		// report Interrupted because a caller Monitor issued Stop, and
		// that is the sweep finishing on its own terms.
		if ctx.Err() != nil && stat.Result.Interrupted {
			truncated = true
		}
	}
	res := aggregate(stats, virtualWinner)
	res.Completed = completed
	res.Truncated = truncated
	res.Elapsed = time.Since(start)
	return res, nil
}

// walkerSeeds derives k independent engine seeds from the master seed.
func walkerSeeds(seed uint64, k int) []uint64 {
	master := rng.New(seed)
	seeds := make([]uint64, k)
	for i := range seeds {
		seeds[i] = master.Uint64()
	}
	return seeds
}

// runWalker takes a problem instance from the factory, runs one engine
// on it with the walker's seed and, once the search has returned
// normally, hands the instance back. The walker's effective Monitor is
// the chain of the exchange-board policy, the Progress hook and the
// caller's engine Monitor; every link runs each poll and the
// directives merge (any Stop stops, any Restart restarts, the first
// SetConfig wins). A non-nil stop goes before the chain: once it is
// set, the poll stops the walker and calls no link, as a cancelled
// context does. A panic in the walker — a problem's cost function,
// its factory, a monitor — is the walker's error, so it ends the run
// like any other walker error instead of the process; an instance a
// panic or an error left behind is not handed back.
func runWalker(ctx context.Context, factory Factory, eo core.Options, exch ExchangeOptions, w int, seed uint64, board Board, progress func(int, int64, int), stop *atomic.Bool) (_ WalkerStat, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("multiwalk: walker %d panicked: %v", w, r)
		}
	}()
	p, err := factory.New()
	if err != nil {
		return WalkerStat{}, fmt.Errorf("multiwalk: walker %d factory: %w", w, err)
	}
	eo.Seed = seed
	if progress != nil {
		eo.Monitor = chain(func(iter int64, cost int, _ []int) core.Directive {
			progress(w, iter, cost)
			return core.Directive{}
		}, eo.Monitor)
	}
	// The board monitor goes first: its SetConfig directive carries
	// side effects (the Adoptions count, the perturbation RNG), so it
	// must win the first-SetConfig-wins merge over a caller monitor
	// that happens to teleport on the same poll. It is the one link
	// that writes the walker's stat, which therefore lives on the heap
	// only when there is a board.
	var tally *WalkerStat
	if board != nil {
		// The engine polls its Monitor only every CheckEvery iterations,
		// so an Exchange.Period below that would silently degrade to
		// CheckEvery. Tighten the poll period to the exchange period so
		// the requested cadence is honored; independent walkers (no
		// board) keep their options untouched.
		if eo.CheckEvery == 0 {
			eo.CheckEvery = core.DefaultCheckEvery
		}
		if exch.Period < int64(eo.CheckEvery) {
			eo.CheckEvery = int(exch.Period)
		}
		tally = new(WalkerStat)
		eo.Monitor = chain(boardMonitor(board, tally, exch, p, seed), eo.Monitor)
	}
	if stop != nil {
		next := eo.Monitor
		eo.Monitor = func(iter int64, cost int, cfg []int) core.Directive {
			if stop.Load() {
				return core.Directive{Stop: true}
			}
			if next == nil {
				return core.Directive{}
			}
			return next(iter, cost, cfg)
		}
	}
	res, err := core.Solve(ctx, p, eo)
	if err != nil {
		return WalkerStat{}, fmt.Errorf("multiwalk: walker %d: %w", w, err)
	}
	factory.Recycle(p)
	stat := WalkerStat{Walker: w, Result: res}
	if tally != nil {
		stat.Adoptions, stat.Yielded = tally.Adoptions, tally.Yielded
	}
	if board != nil && res.Solved {
		// Post the win to the board. The monitor only ever publishes
		// costs observed mid-search (all > 0, since a solved engine
		// exits its loop before the next poll), so without this the
		// board could never reach best 0 and the solved-elsewhere stop
		// path would stay dead; with it, sibling walkers — including
		// ones on other workers, via a distributed board — stand down
		// as soon as the win propagates.
		board.Publish(0, res.Solution)
	}
	return stat, nil
}

// chain runs monitor m, then next (if any), on every poll and merges
// their directives: either Stop stops, either Restart restarts, and
// m's SetConfig wins over next's.
func chain(m, next func(int64, int, []int) core.Directive) func(int64, int, []int) core.Directive {
	if next == nil {
		return m
	}
	return func(iter int64, cost int, cfg []int) core.Directive {
		out := m(iter, cost, cfg)
		d := next(iter, cost, cfg)
		out.Stop = out.Stop || d.Stop
		out.Restart = out.Restart || d.Restart
		if out.SetConfig == nil {
			out.SetConfig = d.SetConfig
		}
		return out
	}
}

// aggregate folds per-walker stats into a Result using the given winner
// rule. Winner carries the *global* walker identity (stats[w].Walker),
// which coincides with the slice index for whole-job runs.
func aggregate(stats []WalkerStat, winner func([]WalkerStat) int) Result {
	res := Result{Winner: -1, Walkers: stats}
	for _, s := range stats {
		res.TotalIterations += s.Result.Iterations
		res.Adoptions += s.Adoptions
	}
	if w := winner(stats); w >= 0 {
		res.Solved = true
		res.Winner = stats[w].Walker
		res.Solution = stats[w].Result.Solution
		res.WinnerIterations = stats[w].Result.Iterations
	}
	return res
}

// CombineShards merges the shard results of one logical total-walker
// job into the whole-job Result, exactly as if the job had run
// unsharded: Walkers is reassembled in global order, the winner is
// recomputed by the virtual rule (fewest iterations among solved
// walkers, lowest global index on ties), Completed sums the shards and
// Truncated is sticky. Every global walker index in [0, total) must be
// covered exactly once — a lost shard must be represented explicitly
// (its walkers marked Interrupted, the shard marked Truncated) rather
// than omitted, so a coordinator can never fabricate a complete run
// out of partial data.
func CombineShards(total int, shards ...Result) (Result, error) {
	if total < 1 {
		return Result{}, fmt.Errorf("multiwalk: CombineShards total must be >= 1, got %d", total)
	}
	global := make([]WalkerStat, total)
	seen := make([]bool, total)
	completed := 0
	truncated := false
	var elapsed time.Duration
	for _, sh := range shards {
		for _, ws := range sh.Walkers {
			if ws.Walker < 0 || ws.Walker >= total {
				return Result{}, fmt.Errorf("multiwalk: CombineShards: walker index %d outside job of %d walkers", ws.Walker, total)
			}
			if seen[ws.Walker] {
				return Result{}, fmt.Errorf("multiwalk: CombineShards: walker %d reported by two shards", ws.Walker)
			}
			seen[ws.Walker] = true
			global[ws.Walker] = ws
		}
		completed += sh.Completed
		truncated = truncated || sh.Truncated
		if sh.Elapsed > elapsed {
			elapsed = sh.Elapsed
		}
	}
	for w, ok := range seen {
		if !ok {
			return Result{}, fmt.Errorf("multiwalk: CombineShards: walker %d missing from every shard", w)
		}
	}
	res := aggregate(global, virtualWinner)
	res.Completed = completed
	res.Truncated = truncated
	res.Elapsed = elapsed
	return res, nil
}

// wallClockWinner picks the solved walker (post-cancellation there is
// normally exactly one; ties broken by lowest iteration count, then
// index, for determinism).
func wallClockWinner(stats []WalkerStat) int {
	return virtualWinner(stats)
}

// virtualWinner picks the solved walker with the fewest iterations.
func virtualWinner(stats []WalkerStat) int {
	best := -1
	for i, s := range stats {
		if !s.Result.Solved {
			continue
		}
		if best < 0 || s.Result.Iterations < stats[best].Result.Iterations {
			best = i
		}
	}
	return best
}
