package core

import "repro/internal/rng"

// State is the live search state of one Solve call: the configuration,
// its cost, the tabu marks and the fast-path views of the problem that
// the selection kernels in selection.go and fd.go scan. The engine owns
// it; NewState builds one standalone for tests and micro-benchmarks.
type State struct {
	// Problem is the CSP being solved.
	Problem Problem
	// Rand is the engine's private deterministic RNG stream. Every
	// draw of the search comes from it, so runs stay reproducible for
	// a seed.
	Rand *rng.Rand
	// Opts points at the engine's normalized options.
	Opts *Options
	// Cfg is the current configuration (owned by the engine).
	Cfg []int
	// Cost is the current global cost of Cfg.
	Cost int
	// Iter is the iteration counter of the current run (1-based inside
	// an iteration).
	Iter int64
	// Marks holds the tabu marks: Marks[i] >= Iter means variable i is
	// frozen. The engine's freeze policy writes it; variable selection
	// honors it via Frozen.
	Marks []int64

	errv     ErrorVector
	errLive  MaintainedErrorVector
	errBuf   []int
	errDirty bool
	moveEval MoveEvaluator
	moveBuf  []int

	// Finite-domain fast paths (fd.go); nil on the permutation path.
	fd         FDProblem
	assignEval AssignEvaluator
	assignBuf  []int
}

// Frozen reports whether variable i is tabu at the current iteration.
func (s *State) Frozen(i int) bool { return s.Marks[i] >= s.Iter }

// Errors returns the per-variable projected error vector when the
// problem implements ErrorVector, or nil when it does not. The returned
// slice is a buffer reused across calls; callers must treat it as
// read-only and must not retain it. This is the incremental fast path:
// implementations serve the vector from caches invalidated through
// ExecutedSwap instead of recomputing each variable's projection from
// scratch, and the buffer itself is refetched only after the engine
// marks it stale (InvalidateErrors) — iterations that did not move pay
// nothing at all.
func (s *State) Errors() []int {
	if s.errLive != nil {
		return s.errLive.LiveErrors(s.Cfg)
	}
	if s.errv == nil {
		return nil
	}
	if s.errDirty {
		s.errv.ErrorsOnVariables(s.Cfg, s.errBuf)
		s.errDirty = false
	}
	return s.errBuf
}

// SwapCosts returns the full cost row for variable i — entry j holds
// the global cost a swap of positions i and j would produce, entry i
// the current cost — or nil when the problem does not implement
// MoveEvaluator. The returned slice is a buffer reused across calls;
// callers must consume it before the next SwapCosts call and must not
// retain it. Move selection uses this as the batched fast path: one
// devirtualized pass instead of n-1 interface-dispatched CostIfSwap
// calls, with bit-identical values.
func (s *State) SwapCosts(i int) []int {
	if s.moveEval == nil {
		return nil
	}
	s.moveEval.CostsIfSwapAll(s.Cfg, s.Cost, i, s.moveBuf)
	return s.moveBuf
}

// InvalidateErrors marks the buffered error vector stale, forcing the
// next Errors call to refetch it from the problem. The engine calls it
// after every configuration change (swap, partial reset, teleport, run
// start); external drivers built on NewState must call it after
// mutating Cfg or the problem's incremental state themselves. For
// problems on the MaintainedErrorVector fast path this is a no-op: the
// problem keeps its live vector current through ExecutedSwap/Cost, so
// there is nothing to invalidate.
func (s *State) InvalidateErrors() {
	if s.errLive == nil {
		s.errDirty = true
	}
}

// bindProblem wires the optional fast-path interfaces of p into the
// state.
func (s *State) bindProblem(p Problem, n int) {
	s.Problem = p
	if lv, ok := p.(MaintainedErrorVector); ok {
		s.errLive = lv
		s.errv = lv
	} else if ev, ok := p.(ErrorVector); ok {
		s.errv = ev
		s.errBuf = make([]int, n)
		s.errDirty = true
	}
	if me, ok := p.(MoveEvaluator); ok {
		s.moveEval = me
		s.moveBuf = make([]int, n)
	}
	s.bindFD(p, n)
}

// NewState builds a standalone State over p — a harness for the
// selection kernels' tests and micro-benchmarks, wired exactly as the
// engine wires its own state (including the ErrorVector fast path when
// p implements it). cfg is adopted as the configuration (nil selects a
// random permutation from seed); the cost is computed, tabu marks are
// clear, and Iter starts at 1. The engine itself does not use this
// constructor.
func NewState(p Problem, opts Options, seed uint64, cfg []int) *State {
	n := p.Size()
	opts.normalize(n)
	s := &State{
		Rand:  rng.New(seed),
		Opts:  &opts,
		Marks: make([]int64, n),
		Iter:  1,
	}
	s.bindProblem(p, n)
	if cfg == nil {
		cfg = s.Rand.Perm(n)
	}
	s.Cfg = cfg
	s.Cost = p.Cost(cfg)
	return s
}
