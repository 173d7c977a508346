// Package bench is the experiment harness: it regenerates every table
// and figure of the paper's evaluation (see DESIGN.md §4 for the
// experiment index). The pipeline for the speedup figures is:
//
//  1. Collect — run R sequential Adaptive Search solves of a benchmark
//     and record the runtime distribution (in iterations, the
//     machine-independent work unit, and in seconds for calibration).
//  2. Predict — the order-statistics estimator E[min_k] from
//     internal/stats gives the hardware-independent speedup curve.
//  3. Simulate — internal/cluster replays the multi-walk jobs on the
//     paper's platform models (HA8000, Grid'5000) including launch
//     overheads and node jitter, giving the platform-colored curves.
//
// The paper's instances take CPU-hours sequentially; the default Scale
// uses smaller instances of the same benchmarks whose runtime
// distributions belong to the same family (EXPERIMENTS.md quantifies
// this), so every figure regenerates in minutes on a laptop.
package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/multiwalk"
	"repro/internal/problems"
	"repro/internal/stats"
)

// Scale selects instance sizes for the experiment suite.
type Scale int

const (
	// ScaleSmall uses laptop-friendly instances (default).
	ScaleSmall Scale = iota
	// ScaleTiny uses the smallest meaningful instances; used by `go
	// test` benches so the full suite stays fast.
	ScaleTiny
	// ScalePaper uses the paper's instance sizes (CPU-hours; only for
	// a real cluster or very patient users).
	ScalePaper
)

// ParseScale converts a CLI string into a Scale.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "tiny":
		return ScaleTiny, nil
	case "small", "":
		return ScaleSmall, nil
	case "paper":
		return ScalePaper, nil
	default:
		return 0, fmt.Errorf("bench: unknown scale %q (tiny|small|paper)", s)
	}
}

// String implements fmt.Stringer.
func (s Scale) String() string {
	switch s {
	case ScaleTiny:
		return "tiny"
	case ScaleSmall:
		return "small"
	case ScalePaper:
		return "paper"
	default:
		return fmt.Sprintf("Scale(%d)", int(s))
	}
}

// Workload is one benchmark instance plus the sample size used to
// estimate its runtime distribution.
type Workload struct {
	// Benchmark is the registry name (problems.Names).
	Benchmark string
	// Size is the instance parameter.
	Size int
	// Runs is the number of sequential solves collected.
	Runs int
}

// String implements fmt.Stringer.
func (w Workload) String() string {
	return fmt.Sprintf("%s-%d", w.Benchmark, w.Size)
}

// PaperWorkloads returns the benchmark instances for the given scale,
// keyed by benchmark name, restricted to the four benchmarks of the
// paper's evaluation.
func PaperWorkloads(scale Scale) map[string]Workload {
	switch scale {
	case ScaleTiny:
		return map[string]Workload{
			"all-interval":   {"all-interval", 12, 60},
			"perfect-square": {"perfect-square", 9, 60},
			"magic-square":   {"magic-square", 6, 60},
			"costas":         {"costas", 10, 60},
		}
	case ScalePaper:
		return map[string]Workload{
			"all-interval":   {"all-interval", 700, 50},
			"perfect-square": {"perfect-square", 21, 50},
			"magic-square":   {"magic-square", 100, 50},
			"costas":         {"costas", 22, 50},
		}
	default: // ScaleSmall
		// Sample sizes are chosen so the order-statistics estimator
		// stays meaningful at the paper's 256-core points (n >> k) while
		// the whole collection finishes in minutes on one core.
		return map[string]Workload{
			"all-interval":   {"all-interval", 20, 1000},
			"perfect-square": {"perfect-square", 9, 1000},
			"magic-square":   {"magic-square", 10, 500},
			"costas":         {"costas", 14, 1000},
		}
	}
}

// paperSeqSeconds gives the order of magnitude of the paper's
// *sequential* solving times per benchmark (HA8000, paper-size
// instances): all-interval 700 and magic-square 100 run tens of minutes
// to hours, perfect-square finishes in a couple of minutes (the paper
// notes its parallel times drop under a second, where "other mechanisms
// interfere"), and Costas 22 "takes many hours" (≈256 cores x 1 minute
// under ideal speedup). The platform simulator dilates our scaled-down
// instances to these durations so launch overheads and jitter have the
// same relative weight they had in the paper — part of the hardware
// substitution documented in DESIGN.md §2.
var paperSeqSeconds = map[string]float64{
	"all-interval":   2000,
	"perfect-square": 120,
	"magic-square":   1500,
	"costas":         15000,
}

// PaperSeqSeconds returns the paper-scale sequential duration used to
// dilate simulated time for a benchmark, defaulting to 1000s for
// benchmarks outside the paper's evaluation.
func PaperSeqSeconds(benchmark string) float64 {
	if v, ok := paperSeqSeconds[benchmark]; ok {
		return v
	}
	return 1000
}

// Distribution is the measured sequential runtime distribution of a
// workload, the input to both speedup predictors.
type Distribution struct {
	Workload Workload
	// Iters is the distribution of iterations-to-solution (restarts
	// included), the machine-independent runtime.
	Iters *stats.Sample
	// Seconds is the matching wall-clock distribution on this machine.
	Seconds *stats.Sample
	// ItersPerSecond calibrates the platform simulator: measured
	// iteration throughput of one local core on this benchmark.
	ItersPerSecond float64
	// Model is the fitted shifted-exponential runtime model.
	Model stats.ShiftedExp
}

// SimItersPerSecond returns the iteration rate that makes the simulated
// sequential mean match the paper's reported duration scale for this
// benchmark (time dilation — see PaperSeqSeconds).
func (d *Distribution) SimItersPerSecond() float64 {
	return d.Iters.Mean() / PaperSeqSeconds(d.Workload.Benchmark)
}

// Collect runs w.Runs sequential solves and assembles the Distribution.
// Seeds are derived deterministically from seed. Unsolved runs (budget
// exhaustion cannot happen with unlimited restarts, but context
// cancellation can) abort the collection with an error.
func Collect(ctx context.Context, w Workload, seed uint64) (*Distribution, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if w.Runs < 2 {
		return nil, fmt.Errorf("bench: workload %s needs >= 2 runs, got %d", w, w.Runs)
	}
	factory, err := problems.NewFactory(w.Benchmark, w.Size)
	if err != nil {
		return nil, err
	}
	iters := make([]int64, 0, w.Runs)
	secs := make([]float64, 0, w.Runs)
	var totalIters int64
	var totalSecs float64
	for run := 0; run < w.Runs; run++ {
		p, err := factory()
		if err != nil {
			return nil, err
		}
		opts := core.TunedOptions(p)
		opts.Seed = seed ^ (uint64(run)*0x9e3779b97f4a7c15 + 1)
		start := time.Now()
		res, err := core.Solve(ctx, p, opts)
		if err != nil {
			return nil, fmt.Errorf("bench: %s run %d: %w", w, run, err)
		}
		if res.Interrupted {
			return nil, fmt.Errorf("bench: %s run %d interrupted: %w", w, run, ctx.Err())
		}
		if !res.Solved {
			return nil, fmt.Errorf("bench: %s run %d exhausted its budget unsolved", w, run)
		}
		el := time.Since(start).Seconds()
		iters = append(iters, res.Iterations)
		secs = append(secs, el)
		totalIters += res.Iterations
		totalSecs += el
	}
	is, err := stats.FromInts(iters)
	if err != nil {
		return nil, err
	}
	ss, err := stats.New(secs)
	if err != nil {
		return nil, err
	}
	ips := float64(totalIters) / totalSecs
	if totalSecs == 0 {
		ips = 1e9 // degenerate: instant solves
	}
	return &Distribution{
		Workload:       w,
		Iters:          is,
		Seconds:        ss,
		ItersPerSecond: ips,
		Model:          stats.FitShiftedExp(is),
	}, nil
}

// CollectVirtualSpeedup cross-validates the order-statistics predictor
// with actual multi-walk executions: it runs reps RunVirtual jobs at k
// walkers and returns the mean winner iterations. Used by the harness's
// validation table, the prediction-accuracy report and by tests.
func CollectVirtualSpeedup(ctx context.Context, w Workload, k, reps int, seed uint64) (meanWinnerIters float64, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	factory, err := problems.NewFactory(w.Benchmark, w.Size)
	if err != nil {
		return 0, err
	}
	probe, err := factory()
	if err != nil {
		return 0, err
	}
	engine := core.TunedOptions(probe)
	var sum float64
	for rep := 0; rep < reps; rep++ {
		res, err := multiwalk.RunVirtual(ctx, factory, multiwalk.Options{
			Walkers: k,
			Seed:    seed + uint64(rep)*7919,
			Engine:  engine,
		})
		if err != nil {
			return 0, err
		}
		if !res.Solved {
			return 0, fmt.Errorf("bench: virtual %d-walk of %s unsolved", k, w)
		}
		sum += float64(res.WinnerIterations)
	}
	return sum / float64(reps), nil
}
