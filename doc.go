// Package repro is a Go reproduction of "Performance Analysis of
// Parallel Constraint-Based Local Search" (Abreu, Caniou, Codognet,
// Diaz, Richoux — PPoPP 2012): the Adaptive Search constraint solver,
// its CSPLib benchmark suite, the multiple independent-walk parallel
// execution scheme, and the performance-analysis toolchain that
// regenerates the paper's figures.
//
// The root package is the solver library, a thin facade over:
//
//   - internal/core      — the sequential Adaptive Search engine and
//     its strategy plug point
//   - internal/problems  — benchmark encodings (all-interval,
//     perfect-square, magic-square, Costas arrays, queens, alpha,
//     langford, partition, timetable)
//   - internal/multiwalk — parallel independent multi-walk execution
//   - internal/csp       — declarative constraint modeling
//
// The rest of the system is reached through its commands: cmd/solve
// runs one instance, cmd/serve and cmd/worker serve solve jobs over
// HTTP (internal/service, internal/dist), and cmd/experiments
// regenerates the figures and measurements (internal/stats,
// internal/cluster, internal/bench).
//
// # Quick start
//
//	p, err := repro.NewProblem("magic-square", 10)
//	if err != nil { ... }
//	res, err := repro.Solve(ctx, p, repro.TunedOptions(p))
//	fmt.Println(res.Solved, res.Iterations)
//
// Parallel multi-walk (the paper's contribution):
//
//	factory, _ := repro.NewProblemFactory("costas", 14)
//	mres, _ := repro.SolveParallel(ctx, factory, repro.MultiWalkOptions{
//		Walkers: 8,
//		Engine:  repro.TunedOptions(p),
//	})
//
// The package's examples run the facade end to end.
package repro
