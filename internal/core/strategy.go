package core

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/rng"
)

// This file defines the strategy layer of the engine: the plug-point
// interfaces (VariableSelector, MoveSelector, RestartPolicy), the State
// they operate on, and the registry that resolves Options.Strategy
// names into fresh strategy instances.
//
// The engine loop in engine.go is strategy-agnostic: each iteration it
// asks the VariableSelector for a variable, the MoveSelector for a swap
// partner, and — when the move selector reports a local minimum — the
// RestartPolicy for an escape, a freeze, or a partial reset. The
// default implementations in selection.go reproduce the classic
// Adaptive Search behavior exactly; alternative strategies plug in new
// behaviors without touching the loop, which is what heterogeneous
// multi-walk portfolios (internal/multiwalk) compose across walkers.

// State is the live search state the engine exposes to strategy
// implementations. The engine passes the same *State on every call of
// a run; strategies must not retain it or the slices it holds beyond
// the call.
type State struct {
	// Problem is the CSP being solved.
	Problem Problem
	// Rand is the engine's private deterministic RNG stream. All
	// strategy randomness must come from it so runs stay reproducible
	// for a seed.
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
	// frozen. RestartPolicy implementations write it; selectors honor
	// it via Frozen.
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

// CostIfSwap returns the global cost after a hypothetical swap of
// positions i and j under the current configuration.
func (s *State) CostIfSwap(i, j int) int {
	return s.Problem.CostIfSwap(s.Cfg, s.Cost, i, j)
}

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
// retain it. Move selectors use this as the batched fast path: one
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

// NewState builds a standalone State over p — a harness for strategy
// development, tests and micro-benchmarks, wired exactly as the engine
// wires its own state (including the ErrorVector fast path when p
// implements it). cfg is adopted as the configuration (nil selects a
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

// VariableSelector picks the variable to move each iteration.
type VariableSelector interface {
	// SelectVariable returns the index of the variable the engine
	// should try to move. Implementations should honor tabu marks
	// (State.Frozen) unless deliberately ignoring them.
	SelectVariable(s *State) int
}

// MoveSelector picks the swap partner for the selected variable.
type MoveSelector interface {
	// SelectMove returns the swap partner j for variable i and the
	// global cost the swap would produce. Returning j == i reports
	// that no acceptable move exists (a local minimum); the engine
	// then consults the RestartPolicy.
	SelectMove(s *State, i int) (j, cost int)
}

// RestartPolicy owns the diversification machinery: tabu freezes after
// moves and local minima, probabilistic escapes, and the decision to
// partially reset the configuration. Implementations are stateful (they
// typically count frozen variables) and are created fresh per Solve
// call by the strategy registry.
type RestartPolicy interface {
	// NewRun clears per-run policy state. Called at the start of every
	// run (the first and each restart) and after the engine teleports
	// to a Monitor-supplied configuration.
	NewRun(s *State)
	// OnSwap is invoked after the engine executed the accepted swap
	// (i, j), letting the policy apply post-swap freezes.
	OnSwap(s *State, i, j int)
	// OnLocalMinimum reacts to a local minimum on variable i. It
	// returns an escape swap (vi, vj) with vj >= 0 — the engine
	// executes it unconditionally, even uphill — or vj == -1 after
	// freezing, with reset reporting whether the engine should
	// partially reset the configuration (which also clears all tabu
	// marks).
	OnLocalMinimum(s *State, i int) (vi, vj int, reset bool)
}

// Strategy bundles the three plug points of the engine loop. Zero-value
// fields are filled with the default Adaptive Search implementations at
// Solve time.
type Strategy struct {
	// Name labels the strategy in results and harness output.
	Name string
	// Variable picks the variable to move each iteration.
	Variable VariableSelector
	// Move picks the swap partner for the selected variable.
	Move MoveSelector
	// Restart owns freezes, escapes and partial resets.
	Restart RestartPolicy
}

// fillDefaults replaces nil plug points with the Adaptive Search
// defaults.
func (st *Strategy) fillDefaults() {
	if st.Name == "" {
		st.Name = StrategyAdaptive
	}
	if st.Variable == nil {
		st.Variable = AdaptiveVariable{}
	}
	if st.Move == nil {
		st.Move = MinConflictMove{}
	}
	if st.Restart == nil {
		st.Restart = &AdaptiveRestart{}
	}
}

// Built-in strategy names, resolvable through Options.Strategy.
const (
	// StrategyAdaptive is classic Adaptive Search: worst-variable
	// selection, min-conflict moves, freeze/reset diversification. The
	// default when Options.Strategy is empty.
	StrategyAdaptive = "adaptive"
	// StrategyRandomWalk replaces worst-variable selection with a
	// uniformly random non-frozen variable, keeping min-conflict moves
	// — a cheap, highly diverse walker for portfolios.
	StrategyRandomWalk = "random-walk"
	// StrategyMetropolis keeps worst-variable selection but samples
	// random swap partners and accepts uphill moves with probability
	// exp(-delta/T), escaping most local minima thermally; rejected
	// proposals still fall through to the default freeze/reset policy.
	StrategyMetropolis = "metropolis"
)

var (
	strategyMu       sync.RWMutex
	strategyRegistry = map[string]func() Strategy{}
)

// RegisterStrategy adds a named strategy factory to the global
// registry, making it resolvable through Options.Strategy (and thus
// the CLI flags and multi-walk portfolios). The factory is invoked
// once per Solve call so implementations may carry per-run state.
// Registering a duplicate name panics.
func RegisterStrategy(name string, factory func() Strategy) {
	if name == "" || factory == nil {
		panic("core: RegisterStrategy needs a name and a factory")
	}
	strategyMu.Lock()
	defer strategyMu.Unlock()
	if _, dup := strategyRegistry[name]; dup {
		panic("core: duplicate strategy registration of " + name)
	}
	strategyRegistry[name] = factory
}

// StrategyNames returns the sorted names of all registered strategies.
func StrategyNames() []string {
	strategyMu.RLock()
	defer strategyMu.RUnlock()
	names := make([]string, 0, len(strategyRegistry))
	for n := range strategyRegistry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// unknownStrategyError is the single constructor for the error both
// Validate and strategyFor report, so the wording cannot drift.
func unknownStrategyError(name string) error {
	return fmt.Errorf("core: unknown strategy %q (known: %v)", name, StrategyNames())
}

// strategyFor resolves a strategy name ("" means adaptive) into a
// fresh instance with all plug points filled.
func strategyFor(name string) (Strategy, error) {
	if name == "" {
		name = StrategyAdaptive
	}
	strategyMu.RLock()
	factory, ok := strategyRegistry[name]
	strategyMu.RUnlock()
	if !ok {
		return Strategy{}, unknownStrategyError(name)
	}
	st := factory()
	if st.Name == "" {
		st.Name = name
	}
	st.fillDefaults()
	return st, nil
}

// KnownStrategy reports whether name resolves in the registry — the
// check every request validator (core, dist, service) applies to a
// non-empty Options.Strategy.
func KnownStrategy(name string) bool {
	strategyMu.RLock()
	defer strategyMu.RUnlock()
	_, ok := strategyRegistry[name]
	return ok
}

func init() {
	RegisterStrategy(StrategyAdaptive, func() Strategy {
		return Strategy{Name: StrategyAdaptive}
	})
	RegisterStrategy(StrategyRandomWalk, func() Strategy {
		return Strategy{Name: StrategyRandomWalk, Variable: RandomWalkVariable{}}
	})
	RegisterStrategy(StrategyMetropolis, func() Strategy {
		return Strategy{Name: StrategyMetropolis, Move: &MetropolisMove{}}
	})
}
