package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/perm"
	"repro/internal/rng"
)

// TunedOptions returns DefaultOptions for p with the problem's Tune hook
// (if any) applied. Callers typically start from TunedOptions, override
// what they need, and pass the result to Solve.
func TunedOptions(p Problem) Options {
	o := DefaultOptions(p.Size())
	if t, ok := p.(Tuner); ok {
		t.Tune(&o)
	}
	return o
}

// Solve runs the constraint-based local search engine on p until a
// solution is found, the restart budget is exhausted, or ctx is
// cancelled. A nil ctx is treated as context.Background(). The search
// is Adaptive Search, the one algorithm there is. The returned error
// reports invalid options or an ill-formed problem; search outcomes
// (including running out of budget) are reported in the Result, not as
// errors.
func Solve(ctx context.Context, p Problem, opts Options) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := p.Size()
	if n < 0 {
		return Result{}, fmt.Errorf("core: problem reports negative size %d", n)
	}
	opts.normalize(n)
	if err := opts.Validate(); err != nil {
		return Result{}, err
	}

	e := &engine{
		p:    p,
		opts: opts,
		rand: rng.New(opts.Seed),
		done: ctx.Done(),
	}
	e.resetter, _ = p.(ResetHandler)
	// The one place that branches on which encoding p is: everything the
	// two differ in goes into the move set, and the loop runs over it.
	if fd, ok := p.(FDProblem); ok {
		var err error
		if e.mv, err = newAssignMoves(fd); err != nil {
			return Result{}, err
		}
	} else {
		sw, _ := p.(SwapExecutor)
		e.mv = &swapMoves{swapper: sw}
	}
	if opts.InitialConfig != nil {
		if err := ValidateConfig(p, opts.InitialConfig); err != nil {
			return Result{}, fmt.Errorf("core: bad InitialConfig: %w", err)
		}
	}

	start := time.Now()
	res := e.solve()
	res.Elapsed = time.Since(start)
	return res, nil
}

// ValidateConfig reports whether cfg is a well-formed configuration of
// p: a permutation of [0, p.Size()) for a permutation problem, one
// in-domain value per variable (ValidateFDConfig) for a finite-domain
// one. It gates every configuration that enters a search from outside
// it: InitialConfig, Monitor teleports and exchange-board publishes.
func ValidateConfig(p Problem, cfg []int) error {
	if fd, ok := p.(FDProblem); ok {
		return ValidateFDConfig(fd, cfg)
	}
	if len(cfg) != p.Size() {
		return errConfigLength(len(cfg), p.Size())
	}
	return perm.Validate(cfg)
}

// moves is what differs between the two encodings, everything else
// being the one loop below: the permutation move set swaps two
// variables, which keeps all-different implicit, and the finite-domain
// one assigns a value to one variable. Both draw from the engine's
// stream in a fixed order, which is what the golden traces pin.
type moves interface {
	// minSize is the smallest size with more than one configuration;
	// below it solve reports the cost of the only one.
	minSize() int
	// randomize overwrites e.st.Cfg with a uniformly random
	// configuration.
	randomize(e *engine)
	// step runs one iteration's selection and, if a move was accepted
	// (one costing no more than staying put), executes it and freezes
	// what it moved. It returns the variable selected and whether it
	// moved; not moving is a local minimum.
	step(e *engine) (worst int, moved bool)
	// escape executes localMinimum's forced move on (vi, vj), uphill or
	// not.
	escape(e *engine, vi, vj int)
	// perturb is the generic partial reset: it re-randomizes k variables
	// of e.st.Cfg and leaves the cost to the caller.
	perturb(e *engine, k int)
}

// engine holds the mutable state of one Solve call: the loop skeleton
// and the move set it dispatches to. The search state proper
// (configuration, cost, tabu marks) lives in st, which the selection
// kernels scan.
type engine struct {
	p        Problem
	opts     Options
	rand     *rng.Rand
	done     <-chan struct{}
	resetter ResetHandler
	mv       moves

	st State

	res Result

	// checkLeft counts down to the next cancellation/Monitor check. It
	// replaces an int64 modulo on the cumulative iteration counter in
	// the hot loop and is deliberately NOT reset on restarts or
	// teleports: checks fire at exactly the cumulative iteration counts
	// the old Iterations%CheckEvery == 0 test selected, so Monitor call
	// points (and with them the golden traces) do not move.
	checkLeft int64

	bestCost int // best global cost seen across all runs
	marked   int // variables frozen since the last reset or run start
}

func (e *engine) solve() Result {
	n := e.p.Size()
	e.res = Result{Cost: CostUnknown}
	e.bestCost = math.MaxInt

	// Degenerate sizes have a single configuration (the identity, which
	// is empty when a finite-domain problem gets here): report its cost
	// directly.
	if n < e.mv.minSize() {
		e.st.Cfg = perm.Identity(n)
		e.bestCost = e.p.Cost(e.st.Cfg)
		e.res.Solved = e.bestCost == 0
		e.finishResult()
		return e.res
	}

	// An already-cancelled context means the caller no longer wants the
	// answer (a multi-walk sweep or a service job cancelled before this
	// walker started): return Interrupted immediately instead of burning
	// the first CheckEvery iterations before noticing.
	if e.cancelled() {
		e.res.Interrupted = true
		e.finishResult()
		return e.res
	}

	e.st.Rand = e.rand
	e.st.Opts = &e.opts
	e.st.Marks = make([]int64, n)
	e.st.Cfg = make([]int, n) // reused across all runs
	e.st.bindProblem(e.p, n)
	e.checkLeft = int64(e.opts.CheckEvery)

	runs := 0
	for {
		runs++
		solved, interrupted := e.runOnce(runs == 1)
		if solved || interrupted {
			e.res.Solved = solved
			e.res.Interrupted = interrupted
			break
		}
		if e.opts.MaxRuns > 0 && runs >= e.opts.MaxRuns {
			break
		}
	}
	e.res.Restarts = runs - 1
	e.finishResult()
	return e.res
}

// finishResult stamps the best cost into the Result and, on a solved
// walk, hands out the configuration that solved it: the walker's own
// buffer, which this Solve allocated and writes no more, so the caller
// may keep it without a copy.
func (e *engine) finishResult() {
	e.res.Cost = e.bestCost
	if e.res.Solved {
		e.res.Solution = e.st.Cfg
	}
}

// runOnce performs a single run (up to MaxIterations), dispatching each
// iteration to the move set and each local minimum to localMinimum. It
// returns solved=true when a zero-cost configuration was reached and
// interrupted=true when the context was cancelled mid-run.
func (e *engine) runOnce(first bool) (solved, interrupted bool) {
	o := &e.opts

	if first && o.InitialConfig != nil {
		copy(e.st.Cfg, o.InitialConfig)
	} else {
		e.mv.randomize(e)
	}
	e.st.Cost = e.p.Cost(e.st.Cfg)
	e.st.InvalidateErrors()
	clear(e.st.Marks)
	e.st.Iter = 0
	e.marked = 0
	e.bestCost = min(e.bestCost, e.st.Cost)

	checkEvery := int64(o.CheckEvery)
	for e.st.Cost > 0 && e.st.Iter < o.MaxIterations {
		e.st.Iter++
		e.res.Iterations++
		e.checkLeft--
		if e.checkLeft == 0 {
			e.checkLeft = checkEvery
			if e.cancelled() {
				return false, true
			}
			if o.Monitor != nil {
				d := o.Monitor(e.res.Iterations, e.st.Cost, e.st.Cfg)
				if d.Stop {
					return false, true
				}
				if d.Restart {
					return false, false
				}
				if d.SetConfig != nil && e.adoptConfig(d.SetConfig) {
					continue
				}
			}
		}

		if worst, moved := e.mv.step(e); !moved {
			e.res.LocalMinima++
			e.localMinimum(worst)
		}
	}
	if e.st.Cost == 0 {
		return true, false
	}
	return false, e.cancelled()
}

// cancelled reports whether the context has been cancelled.
func (e *engine) cancelled() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// landed records cost as the cost of the configuration the walker has
// just moved to, by whatever means: the error buffer is stale and the
// cost may be the best seen.
func (e *engine) landed(cost int) {
	e.st.Cost = cost
	e.st.InvalidateErrors()
	e.bestCost = min(e.bestCost, cost)
}

// adoptConfig teleports the walker to cfg (from a Monitor directive),
// clearing tabu marks and their count and recomputing the cost. Invalid
// configurations are rejected.
func (e *engine) adoptConfig(cfg []int) bool {
	if ValidateConfig(e.p, cfg) != nil {
		return false
	}
	copy(e.st.Cfg, cfg)
	e.landed(e.p.Cost(e.st.Cfg))
	clear(e.st.Marks)
	e.marked = 0
	return true
}

// partialReset perturbs the current configuration: problems implementing
// ResetHandler control their own reset; otherwise a ResetFraction of the
// variables, at least two and at most all, is re-randomized by the move
// set and the cost recomputed from scratch.
func (e *engine) partialReset() {
	e.res.Resets++
	if e.resetter != nil {
		e.landed(e.resetter.Reset(e.st.Cfg, e.rand))
		return
	}
	n := len(e.st.Cfg)
	k := max(2, int(e.opts.ResetFraction*float64(n)))
	e.mv.perturb(e, min(k, n))
	e.landed(e.p.Cost(e.st.Cfg))
}

// swapMoves is the permutation move set: a move swaps two variables, so
// a configuration that starts a permutation stays one.
type swapMoves struct {
	swapper SwapExecutor // nil without incremental state to update

	// Scratch of perturb: n positions to draw from, the k values drawn.
	resetIdx, resetVals []int
}

func (*swapMoves) minSize() int { return 2 }

// randomize fills the reused buffer with the identity and shuffles it,
// which consumes the stream exactly as rand.Perm does.
func (*swapMoves) randomize(e *engine) {
	for i := range e.st.Cfg {
		e.st.Cfg[i] = i
	}
	e.rand.Shuffle(e.st.Cfg)
}

func (m *swapMoves) step(e *engine) (worst int, moved bool) {
	var bestJ, bestCost int
	if e.opts.Exhaustive {
		worst, bestJ, bestCost = e.selectBestPair()
	} else {
		worst = e.st.SelectVariable()
		bestJ, bestCost = e.st.SelectMove(worst)
	}
	if bestJ == worst {
		return worst, false
	}
	m.swap(e, worst, bestJ, bestCost)
	if f := e.opts.FreezeSwap; f > 0 {
		e.freeze(worst, f)
		e.freeze(bestJ, f)
	}
	return worst, true
}

func (m *swapMoves) escape(e *engine, vi, vj int) {
	m.swap(e, vi, vj, e.p.CostIfSwap(e.st.Cfg, e.st.Cost, vi, vj))
}

// swap executes the swap (i, j), records it and updates the incremental
// state of the problem.
func (m *swapMoves) swap(e *engine, i, j, newCost int) {
	e.st.Cfg[i], e.st.Cfg[j] = e.st.Cfg[j], e.st.Cfg[i]
	if m.swapper != nil {
		m.swapper.ExecutedSwap(e.st.Cfg, i, j)
	}
	e.res.Swaps++
	e.landed(newCost)
}

// perturb shuffles the values of k random positions among themselves.
func (m *swapMoves) perturb(e *engine, k int) {
	if m.resetIdx == nil {
		m.resetIdx = make([]int, len(e.st.Cfg))
		m.resetVals = make([]int, k)
	}
	perm.PartialShuffleScratch(e.st.Cfg, k, e.rand, m.resetIdx, m.resetVals)
}
