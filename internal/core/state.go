package core

import "repro/internal/rng"

// State is the live search state of one Solve call: the configuration,
// its cost, the tabu marks and the encoding's view of the problem that
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
	// honors it.
	Marks []int64

	// The permutation view and its row buffer; nil unless Problem is a
	// PermProblem.
	perm    PermProblem
	moveBuf []int

	// The finite-domain view and its row buffer (fd.go); nil unless
	// Problem is an FDProblem.
	fd        FDProblem
	assignBuf []int
}

// SwapCosts returns the full cost row for variable i: entry j holds the
// global cost a swap of positions i and j would produce, entry i the
// current cost. The returned slice is a buffer reused across calls;
// callers must consume it before the next SwapCosts call and must not
// retain it.
func (s *State) SwapCosts(i int) []int {
	s.perm.CostsIfSwapAll(s.Cfg, s.Cost, i, s.moveBuf)
	return s.moveBuf
}

// bindProblem wires the encoding views of p into the state: each
// contract p implements, with the row buffer its kernels fill.
func (s *State) bindProblem(p Problem, n int) {
	s.Problem = p
	if pp, ok := p.(PermProblem); ok {
		s.perm = pp
		s.moveBuf = make([]int, n)
	}
	s.bindFD(p, n)
}

// NewState builds a standalone State over p — a harness for the
// selection kernels' tests and micro-benchmarks, wired exactly as the
// engine wires its own state, so p implements PermProblem, FDProblem or
// both, and a kernel of an encoding p does not implement is not called.
// cfg is adopted as the configuration (nil selects a random permutation
// from seed); the cost is computed, tabu marks are clear, and Iter
// starts at 1. The engine itself does not use this constructor.
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
